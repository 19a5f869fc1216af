"""One workload process: set up, run closed-loop passes, print one JSON line.

Started by run.py, never directly. `--t0` is the parent's monotonic clock
just before it started this process, so set-up time counts interpreter
start, imports and input generation. With `--setup-only` the process stops
once its inputs are ready. With `--trace 1` imasim's public functions are
wrapped before set-up (see tracer.py) and the spans are summarised and
written after the last pass.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MIN_PASSES = 3


def case_quantiles(case_s: list[float]) -> tuple[float, float]:
    """Median and nearest-rank p99 of the case times."""
    ordered = sorted(case_s)
    rank = -(-99 * len(ordered) // 100)  # ceil(0.99 n), in integers
    return statistics.median(ordered), ordered[rank - 1]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import numpy
    import imasim
    if not os.path.abspath(imasim.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imasim imported from {imasim.__file__}, not {SRC}")
    t_import = time.monotonic()

    import workloads
    wl = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    inputs = wl.setup(args.seed)
    t_ready = time.monotonic()
    out = {"import_s": t_import - args.t0, "inputs_s": t_ready - t_import,
           "numpy": numpy.__version__}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    perf = time.perf_counter
    pass_s, case_s = [], []
    attempted = failed = 0
    first_failure = None
    begin = perf()
    while True:
        if tracer is not None:
            tracer.begin_pass(len(pass_s))
        t0 = perf()
        res = wl.run_pass(inputs)
        dt = perf() - t0
        pass_s.append(dt)
        if res.case_s is not None:
            case_s += res.case_s
        attempted += res.attempted
        failed += res.failed
        first_failure = first_failure or res.first_failure
        if len(pass_s) >= MIN_PASSES and perf() - begin + dt / 2 >= args.seconds:
            break
    if case_s:
        p50, p99 = case_quantiles(case_s)
    else:  # a case is a whole pass
        p50 = p99 = statistics.median(pass_s)
    out.update(pass_s=pass_s, cases=len(case_s) or len(pass_s),
               case_p50_s=p50, case_p99_s=p99,
               attempted=attempted, failed=failed,
               first_failure=first_failure,
               rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        tracer.uninstall()
        out["labels"] = tracer.labels
        out["passes"] = {str(p): row for p, row in tracer.summary().items()}
        if args.spans_out:
            tracer.save(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
