"""CK021 fixture: fault-site naming drift."""


def instrument(fault_point, kind):
    fault_point("batch.job", "registered sites are clean")
    fault_point("batch.jobz")  # finding: typo'd, unregistered site
