"""The xtl benchmark: time to a verified answer, end to end and per layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; xtl is imported from ./src.

With --trace 0 the run first times SETUP_SAMPLES set-ups, then cycles
through the workload's blocks (see workloads.py), each execution in a fresh
process, while the next execution still ends within --seconds, and at least
once per block.

The host is shared, and its speed drifts by a third over minutes.  So every
time is divided by the slowdown of a reference measurement that no change
to xtl can speed up, timed between the ops of the same executions (set-up:
right after it) and compared with its time on the VM the baseline comes
from; see workloads.Probe.  The end-to-end metrics:

    wall_s       median over blocks of a block's mean wall time
    op_ms.p50    Harrell-Davis median of the ops' latencies, each the mean
                 over its block's executions
    op_ms.p90    Harrell-Davis 90th percentile of the same latencies
    setup_s      median set-up of an execution: interpreter start, import
                 xtl and input generation
    peak_rss_mb  median peak RSS of an execution (its children's for
                 cli-verify); not scaled

With --trace 1 it alternates untraced and traced executions of block 0 and
reports the per-layer metrics of tracing.METRICS from the fastest traced
execution (counts must repeat exactly across executions; times are not
scaled), and trace.overhead_frac: the best traced over the best untraced
wall time, both scaled, minus 1.  Both halves must return identical results op by op.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the line before it records the environment and the sample counts.  Any
wrong result, raised exception or untraced layer makes the run exit 1.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import EXACT, METRICS  # noqa: E402
from workloads import REQUIRED_LAYERS, SIZES  # noqa: E402

MIN_REPS = 1         # executions of each untraced block, however long they take
SETUP_SAMPLES = 10   # set-up-only executions per untraced run, besides the blocks'
MIN_PAIRS = 2        # untraced/traced executions of block 0 per traced run
RUN_LIMIT_S = 170    # a run must end well within 180 s


class BenchError(RuntimeError):
    pass


def _block(args, k, trace=False, spans=None, deadline=None, setup_only=False):
    """Run block k in a fresh process and return its JSON report."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--block-seed", str(args.seed * 1000 + k), "--size", args.size]
    if trace:
        cmd.append("--trace")
    if args.trace:
        cmd.append("--inprocess")
    if args.negative_control:
        cmd.append("--negative-control")
    if spans:
        cmd += ["--spans", spans]
    if setup_only:
        cmd.append("--setup-only")
    timeout = max(5.0, deadline - time.monotonic())
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"block {k} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"block {k} exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.splitlines()[-1])


def hd_quantile(values, p, steps=40):
    """Harrell-Davis estimate of the p-quantile of `values`.

    A weighted mean of all order statistics, the i-th (of n) weighted by
    the Beta((n+1)p, (n+1)(1-p)) mass on [(i-1)/n, i/n], integrated with the
    midpoint rule.  Where few ops lie near the quantile, the sample quantile
    jumps from one op to the next as their order changes; this estimate moves
    smoothly."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logs = [(a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
            for t in ((k + 0.5) / (n * steps) for k in range(n * steps))]
    top = max(logs)
    dens = [math.exp(v - top) for v in logs]
    weights = [sum(dens[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def _digests(block):
    return tuple(op[3] for op in block["ops"])


def _env(args, samples):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "gmpy2": importlib.util.find_spec("gmpy2") is not None,
            "python_flint": importlib.util.find_spec("flint") is not None,
            "commit": commit, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "size": args.size,
            "samples": samples}


def _untraced(args, deadline):
    nblocks = SIZES[args.workload][args.size]["blocks"]
    t0 = time.monotonic()
    setups = [_block(args, k % nblocks, deadline=deadline, setup_only=True)
              for k in range(SETUP_SAMPLES)]
    runs = [[] for _ in range(nblocks)]
    k, took = 0, 0.0
    # start another execution only if it will end within --seconds
    while (min(map(len, runs)) < MIN_REPS
           or time.monotonic() - t0 + took <= args.seconds):
        start = time.monotonic()
        runs[k % nblocks].append(_block(args, k % nblocks, deadline=deadline))
        took = time.monotonic() - start
        k += 1
    problems = [f"block {k} gave different results on repetition"
                for k, reps in enumerate(runs) if len({_digests(b) for b in reps}) != 1]
    # Every time is divided by the slowdown of a reference measurement
    # (workloads.Probe): a block's mean over its repetitions by the mean
    # slowdown through them.  Both are averages over the same stretch of
    # time, so they grow alike when the host is busy.
    every = [b for reps in runs for b in reps]
    walls, lat = [], []
    for reps in runs:
        slowdown = (sum(b["slowdown"] * b["probes"] for b in reps)
                    / sum(b["probes"] for b in reps))
        walls.append(statistics.fmean(b["wall_s"] for b in reps) / slowdown)
        lat += [statistics.fmean(b["ops"][i][1] for b in reps) / slowdown
                for i in range(len(reps[0]["ops"]))]
    set_ups = [b["setup_s"] / b["setup_slowdown"] for b in every + setups]
    p90 = hd_quantile(lat, 0.9)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "op_ms.p50": (1000 * hd_quantile(lat, 0.5), "ms"),
        "op_ms.p90": (1000 * p90, "ms"),
        "setup_s": (statistics.median(set_ups), "s"),
        "peak_rss_mb": (statistics.median(b["peak_rss_mb"] for b in every), "MB"),
    }
    samples = {"blocks": nblocks, "executions": len(every),
               "repetitions_min": min(map(len, runs)), "ops": len(lat),
               "ops_beyond_p90": sum(1 for v in lat if v > p90), "set_ups": len(set_ups),
               "slowdown": statistics.median(b["slowdown"] for b in every),
               "unscaled": {"wall_s": statistics.median(statistics.fmean(b["wall_s"] for b in reps)
                                                        for reps in runs),
                            "setup_s": statistics.median(b["setup_s"] for b in every + setups)}}
    return every, metrics, samples, problems


def _traced(args, deadline):
    spans_dir = HERE / "out"
    spans_dir.mkdir(exist_ok=True)
    spans = str(spans_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    t0 = time.monotonic()
    plain, traced = [], []
    took = 0.0
    while len(traced) < MIN_PAIRS or time.monotonic() - t0 + took <= args.seconds:
        start = time.monotonic()
        # alternate which half goes first, so drift hits both alike
        first_traced = len(traced) % 2 == 1
        for tr in (first_traced, not first_traced):
            b = _block(args, 0, trace=tr, spans=spans if tr and not traced else None,
                       deadline=deadline)
            (traced if tr else plain).append(b)
        took = time.monotonic() - start
    problems = []
    if len({_digests(b) for b in plain + traced}) != 1:
        problems.append("results differ between traced and untraced executions")
    layers = [b["layers"] for b in traced]
    for name in EXACT:
        if len({la[name] for la in layers}) != 1:
            problems.append(f"{name} differs between traced executions")
    problems += [f"{name} is 0: the tracer missed a binding"
                 for name in REQUIRED_LAYERS[args.workload] if not layers[0][name]]
    fastest = min(traced, key=lambda b: b["wall_s"] / b["slowdown"])
    metrics = {name: (fastest["layers"].get(name), unit) for name, unit in METRICS.items()}
    metrics["trace.overhead_frac"] = (fastest["wall_s"] / fastest["slowdown"]
                                      / min(b["wall_s"] / b["slowdown"] for b in plain) - 1,
                                      METRICS["trace.overhead_frac"])
    samples = {"untraced": len(plain), "traced": len(traced), "spans_file":
               os.path.relpath(spans, ROOT)}
    return plain + traced, metrics, samples, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the smoke-test size of every workload")
    ap.add_argument("--negative-control", action="store_true",
                    help="compare against deliberately wrong expected values; must fail")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "xtl" / "__init__.py").is_file():
        print(f"error: no xtl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        blocks, metrics, samples, problems = (_traced if args.trace else _untraced)(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed_ops = [op[0] for b in blocks for op in b["ops"] if not op[2]]
    failed = len(failed_ops)
    attempted = sum(len(b["ops"]) for b in blocks)
    for label in sorted(set(failed_ops)):
        print(f"wrong result: {label}", file=sys.stderr)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    correct = not failed and not problems
    print(json.dumps({"env": _env(args, samples)}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
