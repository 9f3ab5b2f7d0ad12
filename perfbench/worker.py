"""One workload process: set up, run the job list in passes, check and trace.

Started by run.py from the root of a checkout, with the thread variables
pinned to one thread.  Set-up is what a CLI user pays on every call:
importing numpy and the package, then writing the seeded inputs.  The first
pass is the warm-up; its outputs are checked by the oracle and become the
reference bytes for every later pass.  Later passes run while another one
fits in `--seconds`, and at least once; with `--trace 1` they alternate
untraced and traced, ending on a traced pass.  The result goes to the JSON
file named by `--result`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
LAYERS = ("cli", "pauli", "states", "chain", "decompose", "transfer", "grape")
_BLAS_KEYS = ("name", "version", "openblas configuration")


def _environment() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: v for k, v in deps.get("blas", {}).items() if k in _BLAS_KEYS},
        "lapack": {k: v for k, v in deps.get("lapack", {}).items() if k in _BLAS_KEYS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_THREADS") or k == "MIRRORCHAIN_THREADS"},
    }


def _digest(paths) -> str | None:
    h = hashlib.sha256()
    try:
        for p in paths:
            h.update(Path(p).read_bytes())
    except OSError:
        return None
    return h.hexdigest()


def _run_pass(jobs, call, tracer=None) -> dict:
    """Run every job once, back to back; only the job calls are timed."""
    codes, errors, times = [], [], []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
            root = tracer.open("bench.job")
        start = time.perf_counter()
        try:
            code, error = call(list(job.argv)), None
        except Exception:
            code, error = None, traceback.format_exc(limit=3)
        times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.close(root)
        codes.append(code)
        errors.append(error)
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "cpu_s": time.process_time() - cpu0,
        "job_s": times,
        "codes": codes,
        "errors": errors,
        "digests": [_digest(job.outputs) for job in jobs],
        "output_bytes": sum(os.path.getsize(p) for job in jobs for p in job.outputs
                            if os.path.exists(p)),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="directory for inputs and outputs")
    parser.add_argument("--result", required=True, help="JSON file for the result")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401  (part of the measured set-up)

    for name in LAYERS:
        importlib.import_module("mirrorchain." + name)
    import workloads

    work = Path(args.work)
    jobs, manifest = workloads.build(args.workload, args.seed, work / "inputs", work / "outputs")
    ready = time.monotonic()
    result = {"ready": ready, "manifest": manifest}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
        return 0

    import oracle
    import tracing

    from mirrorchain.cli import main as cli_main

    warm = _run_pass(jobs, cli_main)
    content = [
        oracle.check(job.check, job.params, Path(job.outputs[0]), ROOT)
        if code == job.expect_exit and err is None else []
        for job, code, err in zip(jobs, warm["codes"], warm["errors"])
    ]
    passes = [dict(warm, kind="warmup")]

    tracer = tracing.Tracer()
    traced_main = tracer.wrap("cli.main", cli_main)
    started = time.perf_counter()
    for n in itertools.count():
        traced = args.trace == 1 and n % 2 == 1
        if traced:
            tracer.reset()
            restore = tracing.install(tracer)
            try:
                p = _run_pass(jobs, traced_main, tracer)
            finally:
                restore()
            p["summary"] = tracer.summary()
            p["layers"] = tracing.layer_metrics(p["summary"])
            p["kind"] = "traced"
        else:
            p = dict(_run_pass(jobs, cli_main), kind="untraced")
        passes.append(p)
        # Stop before a pass (or, when tracing, a pair) that would overrun.
        ahead = p["wall_s"] * (1 + args.trace)
        if (args.trace == 0 or traced) and time.perf_counter() - started + ahead > args.seconds:
            break
    if args.trace == 1:
        spans = str(work / "spans_last_traced_pass.npz")
        tracer.save(spans)
        result["span_file"] = spans

    failures = []
    for n, p in enumerate(passes):
        for job, code, err, digest, ref, bad in zip(
            jobs, p["codes"], p["errors"], p["digests"], warm["digests"], content
        ):
            reason = None
            if err is not None:
                reason = "raised: " + err.strip().splitlines()[-1]
            elif code != job.expect_exit:
                reason = f"exit code {code}, expected {job.expect_exit}"
            elif digest is None:
                reason = "output missing"
            elif digest != ref:
                reason = "output bytes differ from the first pass"
            elif bad:
                reason = "; ".join(bad)
            if reason is not None:
                failures.append({"job": job.name, "argv": list(job.argv), "pass": n, "reason": reason})
                if err is not None and n == 0:
                    print(err, file=sys.stderr)

    for p in passes:
        del p["codes"], p["errors"], p["digests"]
    result.update(
        env=_environment(),
        jobs=[job.name for job in jobs],
        attempted=len(jobs) * len(passes),
        failures=failures,
        passes=passes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
