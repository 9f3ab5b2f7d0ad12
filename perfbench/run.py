"""Benchmark of the mirrorchain CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload synth --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it reads the package from `src/` and
writes only under `.perfbench-out/`.  Each workload runs in its own process
with MIRRORCHAIN_THREADS=1 and the BLAS thread variables at 1.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics of BENCHMARK.json with `--trace 1`.  The full report (the
environment, every per-layer metric, sample counts and each failed job by
its argv) goes to `.perfbench-out/<workload>-seed<n>-trace<t>/report.json`.
The workloads and the metric map are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("synth", "mirror-transfer", "pulse")
#: Fresh interpreters timed for setup_s; the last one also runs the workload.
SETUP_RUNS = 5
#: Every run ends within this many seconds.
DEADLINE_S = 170.0
#: Set for the worker here: it imports numpy before its first CLI call, so the
#: CLI's own MIRRORCHAIN_THREADS handling would come too late.
THREAD_VARS = ("MIRRORCHAIN_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: Traced self times must account for the traced wall time to this share.
ACCOUNTING_TOL = 0.01


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _source_identity(root: Path) -> dict:
    """git SHA when the checkout is a repository, and a digest of src/ always."""
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_digest": h.hexdigest()}


def _worker(args, work: Path, result: Path, env: dict, setup_only: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    # Job output goes to stderr so that stdout ends with the result line.
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    out = json.loads(result.read_text(encoding="utf-8"))
    out["setup_s"] = out["ready"] - spawned
    return out


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(run: dict, setups: list[float]) -> tuple[dict, dict]:
    measured = [p for p in run["passes"] if p["kind"] == "untraced"]
    jobs = [t for p in measured for t in p["job_s"]]
    walls = [p["wall_s"] for p in measured]
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(statistics.median(walls), "s"),
        "job_p50_s": _metric(statistics.median(jobs), "s"),
        "peak_rss_mb": _metric(run["peak_rss_mb"], "MB"),
    }
    counts = {"setup_s": len(setups), "wall_s": len(walls), "job_p50_s": len(jobs)}
    if len(jobs) >= 50:
        # The highest percentile with at least ten samples beyond it.
        q = max(k for k in range(50, 100) if len(jobs) * (100 - k) / 100 >= 10)
        counts[f"job_p{q}_s"] = statistics.quantiles(jobs, n=100)[q - 1]
    return metrics, counts


def _per_layer(run: dict, wanted: list[dict]) -> tuple[dict, dict, list[str]]:
    traced = [p for p in run["passes"] if p["kind"] == "traced"]
    untraced = [p for p in run["passes"] if p["kind"] == "untraced"]
    layers: dict[str, float | None] = {}
    for name in traced[0]["layers"]:
        values = [p["layers"][name] for p in traced if p["layers"][name] is not None]
        layers[name] = statistics.median(values) if values else None
    layers["cli.output_bytes"] = statistics.median(p["output_bytes"] for p in traced)
    layers["process.cpu_s"] = statistics.median(p["cpu_s"] for p in traced)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    layers["trace.overhead_s"] = traced_wall - statistics.median(p["wall_s"] for p in untraced)

    problems = []
    for n, p in enumerate(traced):
        s = p["summary"]
        accounted = s["trace.self_sum_s"] + (p["wall_s"] - s["trace.root_sum_s"])
        p["accounted_share"] = accounted / p["wall_s"]
        if abs(p["accounted_share"] - 1.0) > ACCOUNTING_TOL or s["trace.min_self_s"] < -1e-9:
            problems.append(f"traced pass {n}: self times account for {p['accounted_share']:.4f} "
                            f"of the wall time (min self {s['trace.min_self_s']:.3g} s)")
    metrics = {}
    for m in wanted:
        value = layers.get(m["name"])
        if value is None:
            problems.append(f"per-layer metric {m['name']} has no value")
            continue
        metrics[m["name"]] = _metric(value, m["unit"])
    detail = {"layers": layers, "traced_passes": len(traced), "untraced_passes": len(untraced),
              "traced_wall_s": traced_wall,
              "accounted_share": [p["accounted_share"] for p in traced]}
    return metrics, detail, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if args.seconds < 1:
        return _fail("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "mirrorchain" / "cli.py").is_file():
        return _fail(f"no src/mirrorchain package under {root}; run from the root of a checkout")
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")

    run_dir = root / ".perfbench-out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    work = run_dir.relative_to(root)
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))

    try:
        setups = [_worker(args, work, run_dir / f"setup{i}.json", env, True, deadline)
                  for i in range(SETUP_RUNS - 1)]
        run = _worker(args, work, run_dir / "worker.json", env, False, deadline)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        return _fail(f"workload {args.workload} did not complete: {exc}")

    setup_times = [s["setup_s"] for s in setups] + [run["setup_s"]]
    digests = {s["manifest"]["input_digest"] for s in setups + [run]}
    problems = [] if len(digests) == 1 else ["the seeded inputs differ between set-ups"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "source": _source_identity(root),
        "env": run["env"],
        "manifest": run["manifest"],
        "setup_s_samples": setup_times,
        "jobs": run["jobs"],
        "passes": [{k: v for k, v in p.items() if k != "summary"} for p in run["passes"]],
        "failures": run["failures"],
    }
    if args.trace == 0:
        metrics, report["samples"] = _end_to_end(run, setup_times)
    else:
        metrics, report["per_layer"], layer_problems = _per_layer(run, spec["per_layer"])
        problems += layer_problems
    attempted, failed = run["attempted"], len(run["failures"])
    report.update(metrics=metrics, attempted=attempted, failed=failed,
                  fail_ratio=failed / attempted, problems=problems)
    (run_dir / "report.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    for f in run["failures"]:
        print(f"perfbench: FAILED pass {f['pass']}: {' '.join(f['argv'])}: {f['reason']}",
              file=sys.stderr)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    line = {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
