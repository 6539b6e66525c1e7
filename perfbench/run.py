"""gtkit benchmark: seeded batches of real `gt` jobs, timed end to end and traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload batch --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --summary --seed 1        # every workload, both tables

One run measures set-up time with fresh interpreters, then starts one fresh
worker process that writes the workload's seeded inputs and runs whole rounds
of its `gt` jobs back to back (closed loop, one client, no threads) until the
time budget is spent. Every job's outputs are checked from outside. The last
line of standard output is the JSON result: end-to-end metrics with
--trace 0, per-layer metrics of a traced run with --trace 1. Workload names,
metric names, units and the run length come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402

WORKLOADS = [w["name"] for w in tracing.BENCHMARK["workloads"]]
END_TO_END = [(m["name"], m["unit"]) for m in tracing.BENCHMARK["end_to_end"]]
SETUP_PROBES = 11
RUN_LIMIT_S = 170

PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import gtkit.cli; "
    "gtkit.cli.build_parser(); print('ready', flush=True)"
)
# A fresh interpreter importing a fixed set of standard modules, started next to
# each probe. Its start-up time tracks how fast the machine starts processes and
# loads modules right now, which a pure-Python loop does not.
BASELINE = (
    "import argparse, csv, decimal, fractions, json, statistics; print('ready', flush=True)"
)
BASELINE_NOMINAL_S = 0.06  # its start-up time at the nominal machine speed


# ---------------------------------------------------------------------------
# provenance


def _git_revision():
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head_path):
        return None
    with open(head_path, "r", encoding="utf-8") as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.exists(ref_path):
        with open(ref_path, "r", encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed, "r", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def _source_digest():
    """sha256 over the relative paths and bytes of src/gtkit, for checkouts without git."""
    digest = hashlib.sha256()
    base = os.path.join(ROOT, "src", "gtkit")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, base).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(seed):
    return {
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# one run


def _ready_s(code, *args):
    """Seconds from starting a fresh interpreter on `code` until it prints 'ready'."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code, *args], stdout=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {code}")
    return elapsed


def measure_setup():
    """Median time from starting a fresh interpreter until gtkit.cli is ready,
    each probe scaled by the start-up time of a baseline interpreter run just
    before it."""
    times = []
    for _ in range(SETUP_PROBES):
        baseline = _ready_s(BASELINE)
        times.append(_ready_s(PROBE, os.path.join(ROOT, "src")) / baseline * BASELINE_NOMINAL_S)
    return statistics.median(times), times


def run_worker(workload, seed, seconds, trace, budget):
    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=work_root)
    result_path = os.path.join(work, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--root", ROOT, "--work", work, "--result", result_path]
    if trace:
        os.makedirs(os.path.join(work_root, "traces"), exist_ok=True)
        cmd += ["--spans", os.path.join(work_root, "traces", f"{workload}-seed{seed}.json")]
    try:
        proc = subprocess.Popen(cmd)
        try:
            code = proc.wait(timeout=budget)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"worker exceeded {budget:.0f} s") from None
        if code != 0:
            raise RuntimeError(f"worker exited with code {code}")
        with open(result_path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _per_job_medians(jobs, key):
    """Each job's median time across rounds: one sample per job of the round, so a
    round's mix of short and long jobs, not the number of rounds, sets the percentiles."""
    by_job = {}
    for j in jobs:
        by_job.setdefault(j["job"], []).append(j[key])
    return [statistics.median(v) for v in by_job.values()]


def _percentile_90(times):
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[8]


def run_once(workload, seed, seconds, trace):
    """One benchmark run; returns (result line, details)."""
    started = perf_counter()
    setup_s, setup_samples = measure_setup()
    worker = run_worker(workload, seed, seconds, trace,
                        RUN_LIMIT_S - (perf_counter() - started))
    jobs = worker["jobs"]
    failed = sum(not j["ok"] for j in jobs)
    times = [j["seconds"] for j in jobs]
    units = dict(END_TO_END + tracing.PER_LAYER)
    if trace:
        values = {name: worker["per_layer"][name] for name, _ in tracing.PER_LAYER}
    else:
        values = {
            "setup_s": setup_s,
            "jobs_per_s": sum(j["ok"] for j in jobs) / sum(times),
            "job_s.p50": statistics.median(_per_job_medians(jobs, "seconds")),
            "job_s.p90": _percentile_90(_per_job_medians(jobs, "seconds")),
            "peak_rss_mb": worker["peak_rss_mb"],
        }
    line = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    digests = {}
    for j in jobs:
        digests.setdefault(j["job"], j["digests"])
    details = {
        "workload": workload,
        "trace": trace,
        "provenance": dict(provenance(seed), numpy=worker["numpy"], gtkit=worker["gtkit"]),
        "inputs": worker["properties"],
        "rounds": worker["rounds"],
        "samples": len(times),
        "percentile_samples": len({j["job"] for j in jobs}),
        "slowdown_mean": statistics.fmean(j["slowdown"] for j in jobs),
        "wall": {"jobs_per_s": sum(j["ok"] for j in jobs) / sum(j["wall"] for j in jobs),
                 "job_s.p50": statistics.median(_per_job_medians(jobs, "wall")),
                 "job_s.p90": _percentile_90(_per_job_medians(jobs, "wall"))},
        "failed_frac": failed / len(jobs),
        "setup_samples_s": setup_samples,
        "job_seconds": {j["job"]: [] for j in jobs},
        "failures": [{"job": j["job"], "errors": j["errors"]} for j in jobs if not j["ok"]][:5],
        "job_info": {},
        "report_sha256": digests,
        "self_times": worker.get("self_times"),
    }
    for j in jobs:
        details["job_seconds"][j["job"]].append(j["seconds"])
        details["job_info"].setdefault(j["job"], j["info"])
    analyzed = [info for info in details["job_info"].values() if "degenerate" in info]
    if analyzed:
        details["inputs"]["degenerate_share_observed"] = (
            sum(info["degenerate"] for info in analyzed) / len(analyzed))
    return line, details


# ---------------------------------------------------------------------------
# reports


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_run(line, details):
    print(f"workload {details['workload']}  seed {details['provenance']['seed']}  "
          f"rounds {details['rounds']}  jobs {line['attempted']}  failed {line['failed']}")
    for name, metric in line["metrics"].items():
        print(f"  {name:<45} {_fmt(metric['value']):>14} {metric['unit']}")
    for failure in details["failures"]:
        print(f"  FAILED {failure['job']}: {failure['errors']}")
    print("details " + json.dumps(details, sort_keys=True))


def summary(seed, seconds):
    """Every workload untraced, then traced: the end-to-end table, the per-layer
    table and the self times of the traced spans."""
    plain, traced = {}, {}
    for w in WORKLOADS:
        plain[w] = run_once(w, seed, seconds, 0)
        traced[w] = run_once(w, seed, seconds, 1)
    names = [n for n, _ in END_TO_END]
    print(f"end to end, tracing off (seed {seed}, {seconds} s per run)")
    header = ["workload"] + [f"{n} [{u}]" for n, u in END_TO_END] + [
        "failed_frac [ratio]", "samples"]
    rows = [header]
    for w in WORKLOADS:
        line, details = plain[w]
        rows.append([w] + [_fmt(line["metrics"][n]["value"]) for n in names]
                    + [_fmt(details["failed_frac"]), str(details["samples"])])
    _print_table(rows)
    print()
    print("per layer, tracing on, per round of the job list")
    rows = [["metric [unit]"] + list(WORKLOADS)]
    for name, unit in tracing.PER_LAYER:
        rows.append([f"{name} [{unit}]"] + [_fmt(traced[w][0]["metrics"][name]["value"])
                                            for w in WORKLOADS])
    _print_table(rows)
    for w in WORKLOADS:
        print()
        print(f"self times, {w}, per round (hot calls have no spans, so no self time)")
        rows = [["span", "calls", "busy_s", "self_s"]]
        table = traced[w][1]["self_times"]
        for name, (calls, busy, own) in sorted(table.items(), key=lambda kv: -kv[1][1]):
            if calls:
                rows.append([name, _fmt(calls), _fmt(busy), "-" if own is None else _fmt(own)])
        _print_table(rows)
    ok = all(r[0]["correct"] for r in list(plain.values()) + list(traced.values()))
    return 0 if ok else 1


def _print_table(rows):
    widths = [max(len(r[k]) for r in rows) for k in range(len(rows[0]))]
    for r in rows:
        print("  ".join(cell.ljust(widths[k]) if k == 0 else cell.rjust(widths[k])
                        for k, cell in enumerate(r)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=tracing.BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--summary", action="store_true",
                        help="run every workload untraced and traced; print the tables")
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "gtkit", "cli.py")):
        print(f"error: no gtkit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.summary:
        return summary(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        line, details = run_once(args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_run(line, details)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
