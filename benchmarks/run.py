"""imasim host-time benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload {sweep,verify,emulate} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. Each run starts fresh worker processes
(worker.py) with one BLAS/OpenMP thread each, one after another:

1. SETUP_RUNS set-up-only processes, whose median gives `setup_s`;
2. with `--trace 0`, one process that runs closed-loop passes for S seconds
   and gives the end-to-end metrics;
3. with `--trace 1`, one untraced and one traced process of S/2 seconds
   each, which give the per-layer metrics and the tracing overhead.

A human-readable report goes to standard output; its last line is the JSON
result `{"correct", "attempted", "failed", "metrics"}`. Metric names and
units come from BENCHMARK.json. Provenance and raw samples are written to
.bench_out/ in the repository root. Exits 1 without a result when a worker
fails, for instance when the imasim sources are missing.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("sweep", "verify", "emulate")
SETUP_RUNS = 5
TIMEOUT_S = 170  # every worker together, below the 180 s a run may take
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PLANS = ("sw", "ima8", "ima16", "hybrid")


class WorkerFailed(Exception):
    pass


def run_worker(args, deadline: float, seconds: float = 0.0, trace: int = 0,
               setup_only: bool = False, spans_out: str | None = None) -> dict:
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("out of time before starting a worker")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker timed out: {' '.join(cmd)}") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}: {' '.join(cmd)}\n"
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def git_commit() -> str:
    """HEAD of the checkout, read without running git; 'unknown' if none."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(setups: list[dict], main: dict) -> tuple[dict, dict]:
    """Metric values and the sample details printed beside them."""
    samples = {
        "setup_s": [s["import_s"] + s["inputs_s"] for s in setups],
        "wall_s": main["pass_s"],
    }
    values = {k: statistics.median(v) for k, v in samples.items()}
    values["peak_rss_mb"] = main["rss_mb"]
    values["case_p50_ms"] = main["case_p50_s"] * 1e3
    values["case_p99_ms"] = main["case_p99_s"] * 1e3
    return values, samples


def per_layer(setups: list[dict], untraced: dict, traced: dict) -> dict:
    """Times are medians over the traced passes; counts and their ratios are
    those of the first pass, which repeat exactly from run to run for a
    seed. A span or counter a workload never reaches reads 0."""
    passes = [row for p, row in traced["passes"].items() if int(p) >= 0]
    setup_row = traced["passes"].get("-1", {})

    first = passes[0]

    def med(fn):
        return statistics.median(fn(row) for row in passes)

    def ratio(row, num, den):
        return row.get(num, 0) / row[den] if row.get(den) else 0.0

    values = {}
    for label in traced["labels"]:
        values[f"{label}.self_s"] = med(lambda r: r.get(f"{label}.self_s", 0.0))
        values[f"{label}.calls"] = first.get(f"{label}.calls", 0)
    for counter in ("mapper.jobs", "mapper.segments", "xbar.cells_driven",
                    "xbar.mvm.noisy_calls", "mapper.job_stream.distinct_keys"):
        values[counter] = first.get(counter, 0)
    values["mapper.job_stream.distinct_ratio"] = ratio(
        first, "mapper.job_stream.distinct_keys", "mapper.job_stream.calls")
    values["xbar.useful_cell_ratio"] = ratio(
        first, "xbar.useful_cells", "xbar.cells_attributed")
    for plan in PLANS:
        durations = [d for r in passes
                     for d in r.get(f"dse.evaluate_point.{plan}.durations_s", ())]
        values[f"dse.evaluate_point.{plan}.p50_ms"] = \
            statistics.median(durations) * 1e3 if durations else 0.0
    values["verify.random_case.self_s"] = \
        setup_row.get("verify.random_case.self_s", 0.0)
    values["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
    values["setup.inputs_s"] = statistics.median(s["inputs_s"] for s in setups)
    values["trace.self_total_s"] = med(
        lambda r: sum(v for k, v in r.items() if k.endswith(".self_s")))
    values["trace.wall_s"] = statistics.median(traced["pass_s"])
    values["trace.overhead_s"] = (values["trace.wall_s"]
                                  - statistics.median(untraced["pass_s"]))
    return values


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + TIMEOUT_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        setups = [run_worker(args, deadline, setup_only=True)
                  for _ in range(SETUP_RUNS)]
        if args.trace:
            untraced = run_worker(args, deadline, args.seconds / 2)
            main_run = run_worker(
                args, deadline, args.seconds / 2, trace=1,
                spans_out=os.path.join(OUT_DIR, f"{args.workload}.spans.npz"))
            values = per_layer(setups, untraced, main_run)
            samples = {}
            runs = [untraced, main_run]
        else:
            main_run = run_worker(args, deadline, args.seconds)
            values, samples = end_to_end(setups, main_run)
            runs = [main_run]
    except WorkerFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        print(f"error: no value for metrics {missing}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": main_run["numpy"],
        "commit": git_commit(), "setup_runs": len(setups),
        "passes": [len(r["pass_s"]) for r in runs],
    }
    print("imasim benchmark  " + "  ".join(f"{k}={v}" for k, v in provenance.items()))
    for m in spec:
        line = f"  {m['name']:<40} {values[m['name']]:>14.6g} {m['unit']}"
        if m["name"] in samples:
            q1, q3 = quartiles(samples[m["name"]])
            line += f"   (median of {len(samples[m['name']])}; q1 {q1:.6g}, q3 {q3:.6g})"
        elif m["name"].startswith("case_"):
            line += f"   (of {main_run['cases']} cases)"
        print(line)
    for r in runs:
        if r["first_failure"]:
            print(f"  first failure: {r['first_failure']}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec}
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as f:
        json.dump({"provenance": provenance, "metrics": metrics,
                   "setups": setups, "runs": runs}, f, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
