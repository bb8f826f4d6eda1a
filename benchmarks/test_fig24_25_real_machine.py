"""Figures 24/25 and the Section 7.4 TVD study — end-to-end QAOA on the
noisy Mumbai-like device.

Paper: 10-qubit and 20-qubit random-0.3 MaxCut with COBYLA, 8000 shots per
round, comparing our compiled circuit against the 2QAN baseline.  Expected
shape: our circuit has higher ESP, lower TVD, and converges to a lower
(better) expected energy within the same number of rounds.

The 20-qubit run simulates a 2^20 statevector per round; it runs by
default but can be skipped with ``REPRO_SKIP_20Q=1`` on slow machines.
"""

import os

from benchmarks._common import table
from repro.arch import NoiseModel, mumbai
from repro.baselines import compile_twoqan
from repro.compiler import compile_qaoa
from repro.problems import QaoaProblem, random_problem_graph
from repro.sim import QaoaRunner


def _run_size(n: int, rounds: int):
    problem = QaoaProblem(random_problem_graph(n, 0.3, seed=7))
    coupling = mumbai()
    noise = NoiseModel(coupling, seed=3)
    outcome = {}
    for name, compiled in (
        ("ours", compile_qaoa(coupling, problem.graph, method="hybrid",
                              noise=noise)),
        ("2qan", compile_twoqan(coupling, problem.graph)),
    ):
        compiled.validate(coupling, problem.graph)
        runner = QaoaRunner(problem, compiled, noise=noise, shots=8000,
                            seed=11)
        run = runner.optimize(max_rounds=rounds)
        outcome[name] = {
            "depth": compiled.depth(),
            "cx": compiled.gate_count,
            "esp": runner.esp,
            "tvd": runner.tvd_vs_ideal(0.5, 0.4),
            "best_energy": run.best_energy,
            "trace": run.best_so_far(),
        }
    return outcome


def _compute():
    rows = []
    sizes = [10]
    if os.environ.get("REPRO_SKIP_20Q", "") in ("", "0"):
        sizes.append(20)
    ok = True
    for n in sizes:
        rounds = 30 if n == 10 else 25
        outcome = _run_size(n, rounds)
        for name in ("ours", "2qan"):
            o = outcome[name]
            rows.append([f"{n}-0.3", name, o["depth"], o["cx"],
                         o["esp"], o["tvd"], o["best_energy"]])
        ok &= outcome["ours"]["tvd"] <= outcome["2qan"]["tvd"] + 0.02
        ok &= (outcome["ours"]["best_energy"]
               <= outcome["2qan"]["best_energy"] + 0.25)
    table("fig24_25_real_machine",
          "Figs 24/25 + §7.4: end-to-end QAOA on noisy Mumbai substitute",
          ["graph", "compiler", "depth", "CX", "ESP", "TVD",
           "best energy"],
          rows)
    assert ok, "our circuit should retain more signal than the baseline"


def test_fig24_25_qaoa_convergence():
    _compute()
