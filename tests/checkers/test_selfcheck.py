"""The gate the CI lint job enforces: the shipped tree checks clean.

Running the full catalogue over ``src/repro`` with the committed
baseline must produce zero non-baselined findings *and* zero stale
baseline entries — so a regression fails here first, and a fixed
finding forces its baseline entry to be deleted in the same change.
"""

import pathlib

from repro.checkers import apply_baseline, check_paths, load_baseline

ROOT = pathlib.Path(__file__).resolve().parents[2]


def run_selfcheck():
    findings = check_paths([ROOT / "src" / "repro"])
    entries = load_baseline(ROOT / "CHECKERS_BASELINE.json")
    return apply_baseline(findings, entries)


def test_source_tree_has_zero_nonbaselined_findings():
    remaining, _suppressed, _stale = run_selfcheck()
    assert remaining == [], "\n".join(
        f"{d.location()}: {d.code} {d.message}" for d in remaining)


def test_baseline_has_no_stale_entries():
    _remaining, suppressed, stale = run_selfcheck()
    assert stale == (), [f"{e.code} {e.path} {e.symbol}" for e in stale]
    # The baseline is in active use (the justified CK010 exemptions);
    # if this drops to zero the file should be deleted outright.
    assert suppressed > 0


def test_solver_knobs_are_declared():
    from repro.pipeline.registry import declared_knobs, get_method

    assert {"max_nodes", "prune_unhelpful_swaps", "use_heuristic",
            "minimize_swaps", "strategy", "fallback"} \
        <= set(get_method("optimal").knobs)
    assert "layers" in declared_knobs()


def test_fault_sites_registry_matches_module_table():
    from repro.resilience.faults import KNOWN_SITES

    assert KNOWN_SITES == ("batch.job", "batch.collect", "pipeline.pass",
                           "solver.solve", "solver.expand",
                           "serve.request", "serve.store_write")
