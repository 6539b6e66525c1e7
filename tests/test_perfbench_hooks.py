"""The benchmark's tracer still finds every gtkit name it wraps.

`perfbench/tracing.py` rebinds module attributes of gtkit from outside, by
name; a rename in gtkit would break `perfbench/run.py --trace 1`.  This
installs the tracer on the gtkit modules the way `perfbench/worker.py` does,
runs traced jobs, and checks that uninstalling restores every original.
"""

import importlib.util
from pathlib import Path

from gtkit import _linsolve, cli, evolution, gamefile, games, padic, padic_quantum, quantum

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_gtkit_and_uninstalls(tmp_path):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install({"gamefile": gamefile, "games": games, "evolution": evolution,
                    "quantum": quantum, "padic_quantum": padic_quantum, "padic": padic,
                    "_linsolve": _linsolve})
    wrapped = list(tracer._originals)
    try:
        assert all(getattr(owner, attr) is not original for owner, attr, original in wrapped)
        for argv in (["analyze", "--in", "bos"],
                     ["evolve", "--in", "rps", "--t-end", "0.1"],
                     ["quantumize", "--in", "bos", "--padic", "--grid", "2"]):
            assert cli.main([*argv, "--out", str(tmp_path / argv[0])]) == cli.EXIT_OK
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in wrapped)
    table = tracer.table()
    for name in ("games.pareto_optimal_profiles", "evolution.rest_point_reports",
                 "evolution.ess_check", "quantum.payoff_surface_rows",
                 "padic_quantum.padic_quantumize_2x2", "linsolve.solve_exact"):
        assert table[name][0] > 0, name
