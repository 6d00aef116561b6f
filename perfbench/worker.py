"""Run one workload in this process and print its figures as one JSON line.

Started by run.py, one process per share of the run:

    python3 perfbench/worker.py --root . --workload spectral --seed 1 \
        --seconds 8 [--trace-out FILE] [--selftest]

The process imports hdxlab from ``<root>/src``, builds the workload's fixed
inputs (the time to here is its set-up time), then runs whole rounds until
the next round would end after ``--seconds``.  Between operations it times
a fixed calibration kernel (see ``Calibration``).  With ``--trace-out``
every call into hdxlab is recorded as a span and the per-layer figures are added.
With ``--selftest`` it runs one round and then feeds each workload mutation
(a deliberately wrong output) to its check, which must reject it.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, imports included

import argparse  # noqa: E402
import copy  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

# the calibration kernel's median time on a quiet 2-core Xeon at 2.1 GHz
# (Python 3.11, numpy 2.4, one BLAS thread); figures are rescaled to it
CALIBRATION_NOMINAL_S = 0.040


class Calibration:
    """Machine speed, measured with a fixed kernel between operations.

    Other tenants of a shared host slow every process for stretches of
    seconds to minutes, by as much as half.  The kernel mixes interpreted
    dict updates, a dense symmetric eigensolve and a sort, like the
    workloads; an operation's time divided by the kernel's time next to it
    is far less subject to that drift.  The kernel uses no hdxlab code, so a change
    to the program moves the round and not the kernel.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        a = rng.random((350, 350))
        self._sym = a + a.T
        self._keys = rng.random(200_000)
        self._np = np
        self.measure()  # warm up

    def measure(self) -> float:
        np = self._np
        start = time.perf_counter()
        acc = {}
        for i in range(200_000):
            acc[i % 1000] = acc.get(i % 1000, 0) + i
        np.linalg.eigvalsh(self._sym)
        np.sort(self._keys)
        return time.perf_counter() - start

    @staticmethod
    def scale(seconds: float, kernel: float) -> float:
        """Seconds rescaled to the nominal kernel time."""
        return seconds * CALIBRATION_NOMINAL_S / kernel


def _parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace-out")
    ap.add_argument("--selftest", action="store_true")
    return ap.parse_args(argv)


def _run_op(op, state):
    """Outputs and failures of one operation; an exception is a failure."""
    try:
        out = op.run(state)
        return out, op.check(state, out), False
    except Exception as exc:  # one failing operation must not end the run
        return None, [f"{type(exc).__name__}: {exc}"], True


def _timed(wl, state, seconds, tracer, cal):
    """Whole rounds until the next would end after ``seconds``.

    The calibration kernel runs before the first operation and after every
    operation.  Each operation's time is rescaled by the median of the four
    kernel times nearest to it, two on either side.
    """
    ops = wl.ops()
    rounds, took, failures = [], [], []
    kernel = [cal.measure()]
    attempted = failed = wrong = 0
    deadline = time.perf_counter() + seconds
    while True:
        if tracer:
            tracer.run = f"round{len(rounds)}"
        for op in ops:
            start = time.perf_counter()
            _, fails, raised = _run_op(op, state)
            took.append(time.perf_counter() - start)
            kernel.append(cal.measure())
            attempted += 1
            if fails:
                failed += 1
                wrong += not raised
                failures += [f"{op.name}: {msg}" for msg in fails]
        rounds.append(sum(took[-len(ops):]))
        if time.perf_counter() + rounds[-1] > deadline:
            break
    # operation i ran between kernel samples i and i + 1
    scaled = [cal.scale(t, statistics.median(kernel[max(i - 1, 0):i + 3]))
              for i, t in enumerate(took)]
    return {"rounds": rounds,
            "rounds_scaled": [sum(scaled[r * len(ops):(r + 1) * len(ops)])
                              for r in range(len(rounds))],
            "kernel_s": kernel, "attempted": attempted, "failed": failed,
            "wrong": wrong, "failures": failures[:10]}


def _selftest(wl, state):
    outputs, report = {}, {"baseline_failures": [], "mutations": []}
    for op in wl.ops():
        out, fails, _ = _run_op(op, state)
        outputs[op.name] = (op, out)
        report["baseline_failures"] += [f"{op.name}: {msg}" for msg in fails]
    for mut in wl.mutations():
        op, out = outputs[mut.op]
        bad = copy.deepcopy(out)
        mut.apply(bad)
        fails = op.check(state, bad)
        report["mutations"].append({"op": mut.op, "what": mut.what,
                                    "rejected": bool(fails),
                                    "message": fails[0] if fails else None})
    report["ok"] = (not report["baseline_failures"]
                    and all(m["rejected"] for m in report["mutations"]))
    return report


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.path.abspath(args.root)
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import numpy
    import scipy
    import hdxlab
    if not os.path.abspath(hdxlab.__file__).startswith(src + os.sep):
        print(f"hdxlab imported from {hdxlab.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]

    tracer = None
    if args.trace_out:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    scratch = os.path.join(root, ".bench_out")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        state = wl.setup(args.seed, workdir)
        setup_s = time.perf_counter() - T0
        if args.selftest:
            result = _selftest(wl, state)
        else:
            cal = Calibration()
            result = _timed(wl, state, args.seconds, tracer, cal)
            result["setup_s"] = setup_s
            result["setup_scaled"] = cal.scale(
                setup_s, statistics.median(result["kernel_s"][:3]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer:
        tracer.uninstall()
        tracer.write(args.trace_out)
        result["per_layer"] = tracer.metrics(len(result.get("rounds", [])))
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["versions"] = {"python": platform.python_version(),
                          "numpy": numpy.__version__, "scipy": scipy.__version__}
    print(json.dumps(result))
    return 0 if not args.selftest or result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
