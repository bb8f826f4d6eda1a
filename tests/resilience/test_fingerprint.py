"""Canonical-fingerprint regression tests.

The fingerprint is a *persistent* content-address: the result store
keys every cached compilation on it, for ``repro serve`` and for a
resumed ``repro batch --store`` sweep alike.  Two semantically identical job specs built
by different code paths must therefore hash identically — and any
semantic difference must not.
"""

from dataclasses import replace

import pytest

from repro.batch.jobs import BatchJob
from repro.serve.store import (FINGERPRINT_VERSION, _canonical_value,
                               canonical_job_spec, canonical_json,
                               spec_fingerprint)


def job(**kwargs):
    kwargs.setdefault("arch", "grid")
    kwargs.setdefault("n_qubits", 8)
    kwargs.setdefault("method", "greedy")
    return BatchJob(**kwargs)


class TestValueCanonicalization:
    def test_negative_zero_collapses_to_int_zero(self):
        assert _canonical_value(-0.0) == 0
        assert canonical_json(_canonical_value(-0.0)) == "0"
        assert canonical_json(_canonical_value(0.0)) == "0"

    def test_integral_float_collapses_to_int(self):
        assert _canonical_value(2.0) == 2
        assert canonical_json(_canonical_value(2.0)) \
            == canonical_json(_canonical_value(2))

    def test_huge_integral_float_kept_as_float(self):
        # Beyond 2**53 the int rewrite would not be loss-free.
        assert isinstance(_canonical_value(2.0 ** 60), float)

    def test_non_finite_floats_get_string_spellings(self):
        assert _canonical_value(float("nan")) == "float:nan"
        assert _canonical_value(float("inf")) == "float:inf"
        assert _canonical_value(float("-inf")) == "float:-inf"
        # ...and therefore serialize under allow_nan=False.
        canonical_json(_canonical_value(float("nan")))

    def test_tuple_and_list_collapse(self):
        assert _canonical_value((1, 2, 3)) == _canonical_value([1, 2, 3])

    def test_sets_order_deterministically(self):
        assert _canonical_value({3, 1, 2}) \
            == _canonical_value(frozenset([2, 3, 1])) == [1, 2, 3]

    def test_bool_does_not_alias_int(self):
        assert canonical_json(_canonical_value(True)) == "true"
        assert canonical_json(_canonical_value(1)) == "1"

    def test_nested_dicts_canonicalize_recursively(self):
        a = {"outer": {"b": 2.0, "a": (1, -0.0)}}
        b = {"outer": {"a": [1, 0], "b": 2}}
        assert canonical_json(_canonical_value(a)) \
            == canonical_json(_canonical_value(b))

    def test_exotic_objects_are_type_prefixed(self):
        out = _canonical_value(complex(1, 2))
        assert isinstance(out, str) and out.startswith("complex:")


class TestSpecFingerprint:
    def test_negative_zero_gamma_matches_positive_zero(self):
        assert spec_fingerprint(job(gamma=-0.0)) \
            == spec_fingerprint(job(gamma=0.0))

    def test_integral_float_gamma_matches_int(self):
        assert spec_fingerprint(job(gamma=2)) \
            == spec_fingerprint(job(gamma=2.0))

    def test_tuple_vs_list_knob_values_match(self):
        a = job().with_options(schedule=(1, 2, 3))
        b = job().with_options(schedule=[1, 2, 3])
        assert spec_fingerprint(a) == spec_fingerprint(b)

    def test_nested_knob_dict_insertion_order_is_irrelevant(self):
        a = job().with_options(knobs={"alpha": 1, "beta": [2.0]})
        b = job().with_options(knobs={"beta": (2,), "alpha": 1})
        assert spec_fingerprint(a) == spec_fingerprint(b)

    def test_with_options_application_order_is_irrelevant(self):
        a = job().with_options(alpha=1).with_options(beta=2)
        b = job().with_options(beta=2).with_options(alpha=1)
        assert spec_fingerprint(a) == spec_fingerprint(b)

    def test_label_is_presentation_only(self):
        plain = job()
        labeled = replace(plain, label="my fancy name")
        assert plain.name != labeled.name
        assert spec_fingerprint(plain) == spec_fingerprint(labeled)
        assert "label" not in canonical_job_spec(plain)

    @pytest.mark.parametrize("change", [
        {"seed": 1}, {"n_qubits": 10}, {"method": "hybrid"},
        {"gamma": 0.5}, {"use_noise": True}, {"layers": 2},
    ])
    def test_semantic_changes_change_the_fingerprint(self, change):
        assert spec_fingerprint(job(**change)) != spec_fingerprint(job())

    def test_knob_value_changes_change_the_fingerprint(self):
        assert spec_fingerprint(job().with_options(alpha=1)) \
            != spec_fingerprint(job().with_options(alpha=2))

    def test_boolean_knob_does_not_alias_integer_knob(self):
        assert spec_fingerprint(job().with_options(flag=True)) \
            != spec_fingerprint(job().with_options(flag=1))

    def test_version_is_hashed_in(self, monkeypatch):
        before = spec_fingerprint(job())
        monkeypatch.setattr("repro.serve.store.FINGERPRINT_VERSION",
                            FINGERPRINT_VERSION + 1000)
        assert spec_fingerprint(job()) != before

    def test_fingerprints_stay_pinned(self):
        """Stores written earlier must still hit: the digest of a spec
        does not move when canonicalization is reimplemented."""
        plain = job()
        full = BatchJob(
            arch="heavyhex", n_qubits=20, workload="rand", density=0.5,
            seed=3, method="hybrid", gamma=-0.0, layers=2, mixer="none",
            use_noise=True, validate=False, lint=True, label="x",
        ).with_options(restarts=2, weights=(1, 2.0),
                       knobs={"b": 1, "a": [0.5]})
        assert spec_fingerprint(plain) == (
            "8848e6ab77787fa251ee0510aae66dce"
            "e4d323e85c4cc7a6cb1bbf0fa7887b67")
        assert spec_fingerprint(full) == (
            "4253bce9712e9a691d155c13244928423"
            "d28c63a9120af42f0fddd25120818ab")
