"""One workload run in a fresh process: rounds of `gt` jobs, checked and timed.

Started by run.py; not meant to be run by hand. It imports gtkit from the
checkout's `src`, writes the workload's seeded inputs, then runs whole rounds
of the job list in-process through `gtkit.cli.main(argv)` until the time
budget is spent. With --trace 1 it first runs one untraced round, then
traced rounds. The result goes to --result as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracing  # noqa: E402


class _Sink:
    """Discards the CLI's stdout and stderr."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def _digests(outdir):
    """sha256 of each report file, read in chunks, and their total size in bytes."""
    out = {}
    total = 0
    for name in sorted(os.listdir(outdir)):
        path = os.path.join(outdir, name)
        with open(path, "rb") as fh:
            out[name] = hashlib.file_digest(fh, "sha256").hexdigest()
        total += os.path.getsize(path)
    return out, total


def run_job(cli, job, outdir, checks, sampler, tracer=None):
    """Run one job; its wall time covers only the `gt` call, less speed sampling."""
    argv = job.argv + ["--out", outdir]
    rc, crash = None, None
    sink = _Sink()
    sampled, first_sample = sampler.spent, len(sampler.samples)
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if tracer is None:
                rc = cli.main(argv)
            else:
                idx = tracer.open(tracing.JOB_SPAN)
                try:
                    rc = cli.main(argv)
                finally:
                    tracer.close(idx)
    except (Exception, SystemExit):
        crash = traceback.format_exc(limit=3)
    wall = perf_counter() - start - (sampler.spent - sampled)
    slowdown = sampler.slowdown(first_sample)

    errors, info, digests, size = [], {}, {}, 0
    if crash is not None:
        errors.append(f"exception: {crash}")
    elif rc != 0:
        errors.append(f"exit code {rc}")
    else:
        try:
            errors, info = checks.check(job, outdir)
            digests, size = _digests(outdir)
        except Exception:
            errors.append(f"check failed: {traceback.format_exc(limit=3)}")
    shutil.rmtree(outdir, ignore_errors=True)
    return {"job": job.name, "wall": wall, "seconds": wall / slowdown, "slowdown": slowdown,
            "ok": not errors, "errors": errors[:3],
            "info": info, "digests": digests, "bytes_out": size}


def run_rounds(cli, workload, outroot, checks, seconds, tracer=None):
    """Whole rounds of the job list: at least one, and another only while the
    last round's duration says it will end within `seconds`.
    Returns (job records, rounds)."""
    records = []
    rounds = 0
    start = perf_counter()
    with speed.Sampler() as sampler:
        while True:
            round_start = perf_counter()
            for k, job in enumerate(workload.jobs):
                if tracer is not None:
                    tracer.job = len(records)
                records.append(run_job(cli, job, os.path.join(outroot, f"job-{k}"), checks,
                                       sampler, tracer))
            rounds += 1
            now = perf_counter()
            if now - start + (now - round_start) > seconds:
                return records, rounds


def jobs_per_s(records):
    """Passed jobs per second of job time scaled to the nominal machine speed."""
    return sum(r["ok"] for r in records) / sum(r["seconds"] for r in records)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", required=True, help="checkout root holding src/gtkit")
    parser.add_argument("--work", required=True, help="scratch directory for inputs and reports")
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(args.root, "src"))
    import checks
    import inputs
    import numpy

    import gtkit
    from gtkit import _linsolve, cli, evolution, gamefile, games, padic, padic_quantum, quantum

    workload = inputs.build(
        args.workload,
        args.seed,
        os.path.join(args.work, "inputs"),
        os.path.join(args.root, "src", "gtkit", "scenarios"),
        os.path.join(HERE, "expected"),
    )
    outroot = os.path.join(args.work, "out")
    result = {"workload": args.workload, "properties": workload.properties,
              "numpy": numpy.__version__, "gtkit": getattr(gtkit, "__version__", None)}
    if args.trace:
        # One untraced round gives the baseline for the tracing overhead.
        plain, _ = run_rounds(cli, workload, outroot, checks, 0)
        tracer = tracing.Tracer()
        tracer.install({"gamefile": gamefile, "games": games, "evolution": evolution,
                        "quantum": quantum, "padic_quantum": padic_quantum, "padic": padic,
                        "_linsolve": _linsolve})
        try:
            records, rounds = run_rounds(cli, workload, outroot, checks, args.seconds, tracer)
        finally:
            tracer.uninstall()
        result["per_layer"] = tracer.per_layer(
            rounds, sum(r["bytes_out"] for r in records),
            jobs_per_s(plain), jobs_per_s(records))
        result["self_times"] = {name: [calls / rounds, busy / rounds,
                                       None if own is None else own / rounds]
                                for name, (calls, busy, own) in tracer.table().items()}
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump(tracer.dump(), fh)
        records = plain + records
    else:
        records, rounds = run_rounds(cli, workload, outroot, checks, args.seconds)
    result["rounds"] = rounds
    result["jobs"] = records
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
