"""hdxlab benchmark: time one workload end to end, or trace it per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --out .bench_out/a.jsonl

``--trace 0`` splits the run between WORKERS fresh processes, one after the
other.  Each imports hdxlab from ``src/``, builds the workload's fixed inputs
and runs whole rounds for its share of ``--seconds``.  It reports:

    setup_s      median over the processes of import plus set-up
    run_s        median over all rounds of the time to a checked result
    peak_rss_mb  median over the processes of their peak resident memory

Both times are rescaled to a nominal machine speed, measured with a fixed
calibration kernel next to them (worker.Calibration); the raw wall-clock
medians are printed beside them and kept in the ``--out`` file.

``--trace 1`` runs one untraced process and one traced one, each for half
of ``--seconds``.  It reports the per-layer figures of the traced process
(see spans.py), plus the tracing overhead.  The spans are written to
``.bench_out/``.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  ``--out`` appends the same figures, with a
record of the run, to a JSON-lines file that compare.py reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("spectral", "four-layer", "agreement")
WORKERS = 3
BLAS_THREADS = 1
TIME_LIMIT_S = 170  # the whole run, set-up included


def _source_digest(root: str) -> str:
    """sha256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _git_sha(root: str):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _worker(root, workload, seed, seconds, deadline, trace_out=None):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    threads = str(min(BLAS_THREADS, _nproc()))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONHASHSEED="0")
    # subprocess.run kills and reaps the worker if it overruns
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _counts(parts):
    return {"correct": all(p["wrong"] == 0 for p in parts),
            "attempted": sum(p["attempted"] for p in parts),
            "failed": sum(p["failed"] for p in parts),
            "failures": [f for p in parts for f in p["failures"]][:10]}


def run_workload(root, workload, seed, seconds, trace, deadline) -> dict:
    if not trace:
        parts = [_worker(root, workload, seed, seconds / WORKERS, deadline)
                 for _ in range(WORKERS)]
        metrics = {
            "setup_s": statistics.median(p["setup_scaled"] for p in parts),
            "run_s": statistics.median(r for p in parts for r in p["rounds_scaled"]),
            "peak_rss_mb": statistics.median(p["maxrss_kb"] / 1024 for p in parts),
        }
        units = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
        result = {**_counts(parts),
                  "metrics": {k: {"value": v, "unit": units[k]}
                              for k, v in metrics.items()},
                  "wall": {"setup_s": statistics.median(p["setup_s"] for p in parts),
                           "run_s": statistics.median(
                               r for p in parts for r in p["rounds"])}}
    else:
        trace_out = os.path.join(root, ".bench_out",
                                 f"spans-{workload}-seed{seed}.json")
        plain = _worker(root, workload, seed, seconds / 2, deadline)
        traced = _worker(root, workload, seed, seconds / 2, deadline, trace_out)
        parts = [plain, traced]
        metrics = dict(traced["per_layer"])
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced["rounds_scaled"])
            - statistics.median(plain["rounds_scaled"]), "unit": "s"}
        result = {**_counts(parts), "metrics": metrics, "spans_file": trace_out}
    result["rounds"] = [r for p in parts for r in p["rounds"]]
    result["rounds_scaled"] = [r for p in parts for r in p["rounds_scaled"]]
    result["kernel_s"] = [k for p in parts for k in p["kernel_s"]]
    result["versions"] = parts[0]["versions"]
    return result


def _record(root, args, workload, result) -> dict:
    return {"workload": workload, "seed": args.seed, "trace": args.trace,
            "run_seconds": args.seconds, "git_sha": _git_sha(root),
            "source_sha256": _source_digest(root), **result["versions"],
            "nproc": _nproc(), "blas_threads": min(BLAS_THREADS, _nproc()),
            "workers": WORKERS if not args.trace else 2,
            "started": time.strftime("%Y-%m-%dT%H:%M:%S%z")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the results to this JSON-lines file")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hdxlab", "__init__.py")):
        print("run from the root of an hdxlab checkout: src/hdxlab is missing",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in names:
            result = run_workload(root, workload, args.seed, args.seconds,
                                  args.trace, deadline)
            record = _record(root, args, workload, result)
            for name, m in result["metrics"].items():
                print(f"{workload:11s} {name:32s} {m['value']:14.6f} {m['unit']}")
            print(f"{workload:11s} attempted {result['attempted']}, failed "
                  f"{result['failed']}, correct {result['correct']}")
            for name, value in result.get("wall", {}).items():
                print(f"{workload:11s} {name + ' (wall clock)':32s} {value:14.6f} s")
            for msg in result["failures"]:
                print(f"{workload:11s} FAILED {msg}")
            if args.out:
                os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
                with open(args.out, "a") as fh:
                    fh.write(json.dumps({"record": record, **result}) + "\n")
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            prefix = "" if len(names) == 1 else f"{workload}."
            summary["metrics"].update({prefix + k: v
                                       for k, v in result["metrics"].items()})
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
