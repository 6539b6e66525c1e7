"""Every `gt` run of the benchmark's workloads gives the outputs recorded in
`tests/data/equal_output.json`: its exit code, stdout, stderr and the sha256
of each file left under --out.

The jobs are those of the four workloads of `perfbench/inputs.py` at seeds 7
and 8, plus accepted runs outside the benchmark and runs that are refused,
each run in-process through `cli.main`.
Paths under the test's temporary directory are written as `<tmp>`.  A change
meant to keep every report byte-identical leaves the manifest as it is; a
change to a report regenerates it, from the repository root, with

    PYTHONPATH=src python tests/test_equal_output.py

and says which outputs changed and why.
"""

import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from gtkit import cli

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).resolve().parent / "data" / "equal_output.json"
WORKLOADS = ("trajectory", "stability", "batch", "quantum")
SEEDS = (7, 8)

# argv less --out, each in the complex and the p-adic mode: a zero-sum game,
# bos at a weight where A' pays its players apart, and a game whose A' pays both
# players alike at every alpha, so both sides of the surface's common-interest
# rule are pinned beside the benchmark's bos at max
ACCEPTED = [[*argv, *mode]
            for argv in (["quantumize", "--in", "matching-pennies", "--grid", "40"],
                         ["quantumize", "--in", "bos", "--alpha", "3/5", "--grid", "40"],
                         ["quantumize", "--in", "congestion-2link", "--alpha", "4/5",
                          "--grid", "40"])
            for mode in ([], ["--padic"])]

# argv less --out; "file" runs into an existing regular file as --out
REFUSED = [
    ["quantumize", "--in", "bos", "--grid", "0"],
    ["quantumize", "--in", "bos", "--grid", "447"],
    ["quantumize", "--in", "bos", "--padic", "--alpha", "x"],
    ["quantumize", "--in", "rps"],
    ["quantumize", "--in", "bos", "--grid", "4", "file"],
    ["quantumize", "--in", "bos", "--padic", "--grid", "4", "file"],
    ["evolve", "--in", "rps", "--t-end", "0.005"],
    ["evolve", "--in", "rps", "--t-end", "2", "file"],
    ["analyze", "--in", "nope"],
    ["padic", "--expr", "sqrt 3 @ 6^4"],
]


@functools.cache
def load_inputs():
    """perfbench/inputs.py, imported from its file and only read.  Its
    dataclasses look their module up in sys.modules, so it is entered there."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def digests(path):
    """sha256 of each file under path by its relative name ("" for path itself),
    or None when nothing is there."""
    if not os.path.lexists(path):
        return None
    if not os.path.isdir(path):
        return {"": hashlib.sha256(Path(path).read_bytes()).hexdigest()}
    out = {}
    for parent, _, files in os.walk(path):
        for name in files:
            full = os.path.join(parent, name)
            out[os.path.relpath(full, path)] = hashlib.sha256(Path(full).read_bytes()).hexdigest()
    return dict(sorted(out.items()))


def run(argv, out, tmp):
    """One in-process `gt` run into out: its record, with tmp written as <tmp>."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([*argv, "--out", out])
    return {"argv": [arg.replace(tmp, "<tmp>") for arg in argv], "exit": code,
            "stdout": stdout.getvalue().replace(tmp, "<tmp>"),
            "stderr": stderr.getvalue().replace(tmp, "<tmp>"), "reports": digests(out)}


def workload_records(workload, seed, tmp):
    inputs = load_inputs()
    built = inputs.build(workload, seed, os.path.join(tmp, "inputs"),
                         str(ROOT / "src" / "gtkit" / "scenarios"),
                         str(ROOT / "perfbench" / "expected"))
    return [dict(run(job.argv, os.path.join(tmp, "out", f"{k:03d}"), tmp), job=job.name)
            for k, job in enumerate(built.jobs)]


def argv_records(runs, tmp):
    records = []
    for k, argv in enumerate(runs):
        out = os.path.join(tmp, "out", f"{k:03d}")
        if argv[-1] == "file":
            argv = argv[:-1]
            os.makedirs(os.path.dirname(out), exist_ok=True)
            Path(out).write_text("kept\n")
        records.append(run(argv, out, tmp))
    return records


def records(section, tmp):
    if section in ("accepted", "refused"):
        return argv_records(ACCEPTED if section == "accepted" else REFUSED, tmp)
    workload, seed = section.split(":")
    return workload_records(workload, int(seed), tmp)


SECTIONS = [f"{w}:{s}" for w in WORKLOADS for s in SEEDS] + ["accepted", "refused"]


@pytest.mark.parametrize("section", SECTIONS)
def test_every_run_gives_the_recorded_outputs(section, tmp_path):
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))[section]
    actual = records(section, str(tmp_path))
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got == want, want["argv"]


def test_the_manifest_holds_every_job_passed_and_every_refusal_refused():
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert list(manifest) == sorted(SECTIONS)
    assert all(r["exit"] == 0 for s in SECTIONS if s != "refused" for r in manifest[s])
    assert [r["argv"] for r in manifest["accepted"]] == ACCEPTED
    assert all(set(r["reports"]) == {"surface.csv", "equilibria.json"}
               for r in manifest["accepted"])
    assert all(r["exit"] in (2, 3, 4) for r in manifest["refused"])


def main():
    doc = {}
    for section in SECTIONS:
        with tempfile.TemporaryDirectory() as tmp:
            doc[section] = records(section, tmp)
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST}: {sum(len(v) for v in doc.values())} runs")


if __name__ == "__main__":
    sys.exit(main())
