"""The four benchmark workloads, and the process that runs one block of one.

A block is a fixed list of ops built from a block seed: an op is one checker
call at one sampled point, and its result is compared exactly with what it
must be.  `run.py` starts each block in a fresh interpreter, so program
caches start cold as they do for every `xtl` invocation:

    python3 perfbench/workloads.py --workload residue-relations --block-seed 7 \
        --spawned-at <time.monotonic() of the caller> [--trace] [--size tiny]

prints one JSON object: the block's set-up time (interpreter start, `import
xtl`, input generation), its measured wall time, each op's latency and
verdict, peak RSS, how much slower than nominal a reference measurement
ran right after set-up and between the ops and, when traced, the per-layer
metrics.  All times are as measured; `run.py` divides them by the
slowdowns.

Inputs come only from `xtl.sampling.ExactSampler(block_seed)`.  Sampled
points are stratified: the scalar parameters are real and exactly one site
value is Gaussian.  Cost grows with the number of non-real values, so an
unstratified point's cost varies by about 50% between draws; stratified, by
about 10%, which keeps the per-seed medians comparable.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# |TSASM(2N+1)| for N = 0..8 (OEIS A005164); the three count routes must
# reproduce it.
TSASM_COUNTS = [1, 1, 1, 2, 4, 13, 46, 248, 1516]

# Sizes per workload: "blocks" distinct blocks per run, and what one block
# holds.  "full" is the timed size, "tiny" the smoke-test size.  Every block
# runs at least once, however long that takes, so one round of the blocks
# takes about 20 s on a quiet host: with the host half as fast again, a run
# still ends near 30 s.  A full run of 30 s executes each sampled block one
# to two times, and symbolic-counts' one block (whose only sampled input is
# x) about twenty times.
#
# The op mixes put the median and the 90th percentile inside a group of ops
# of like cost, where the estimate does not jump when two ops swap places:
# residue-relations takes 6 points at N = 3, so that the median falls among
# the N = 4 exchange checks; stack-identities takes 4 alternating words, so
# that p90 falls among them; symbolic-counts leaves out the eigenpair at
# N = 6, whose cost depends on x, so that the median falls between the N = 6
# enumeration and generating function.
SIZES = {
    "residue-relations": {
        "full": {"blocks": 4, "points": {3: 6, 4: 5, 5: 1}},
        "tiny": {"blocks": 1, "points": {2: 1, 3: 1}},
    },
    "stack-identities": {
        "full": {"blocks": 7, "points": {2: 12}, "words": {3: 4},
                 "yb_max_stack_n": [1, 1, 1, 1, 2, 2]},
        "tiny": {"blocks": 1, "points": {1: 1, 2: 1}, "words": {2: 1}, "yb_max_stack_n": [1]},
    },
    "symbolic-counts": {
        "full": {"blocks": 1, "n_min": 5, "count_max": 6, "genfun_max": 7, "sum_max": 7, "psi_max": 7,
                 "eig_ns": [4, 5, 7]},
        "tiny": {"blocks": 1, "n_min": 0, "count_max": 5, "genfun_max": 5, "sum_max": 5, "psi_max": 5,
                 "eig_ns": [1, 2, 3, 4, 5]},
    },
    "cli-verify": {
        # (suite, --max-N, --trials): every suite but ybe, whose single job
        # runs at least 20 trials (about 15 s), sized to comparable latencies
        "full": {"blocks": 5, "suites": [("exchange", 3, 2), ("reduction", 3, 2), ("zprops", 3, 2),
                            ("yandyy", 4, 2), ("gflemma", 4, 2), ("relationsz", 3, 2),
                            ("main", 7, 1), ("corollaries", 6, 1)]},
        "tiny": {"blocks": 1, "suites": [("exchange", 3, 1), ("main", 3, 1), ("corollaries", 3, 1)]},
    },
}

# Layer metrics each workload must move; a traced block that records zero
# for one of them means the tracer missed a binding.
REQUIRED_LAYERS = {
    "residue-relations": ("qkz.psi_vector.calls", "qkz.check_exchange_and_reflection.s",
                          "qkz.check_psi_reduction.s"),
    "stack-identities": ("operators.apply_two_site.calls",
                         "sixvertex.partition_enum_all_words.calls",
                         "sixvertex.check_yb_identities.s"),
    "symbolic-counts": ("contour.sum_components.calls", "contour.tsasm_count_integral.calls",
                        "tsasm.count_from_partition.s", "tsasm.enumerate_tsasm.calls",
                        "spinchain.verify_eigenpair.calls"),
    "cli-verify": ("cli.job.count", "theorems.check_main_theorem.s"),
}


class Op:
    """One timed call: `run()` computes a value, `check(value)` judges it.

    `run` looks xtl functions up on their module when called, never earlier,
    so that a traced block calls the tracer's wrappers."""

    def __init__(self, label, run, check):
        self.label, self.run, self.check = label, run, check


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def _real(draw):
    while True:
        v = draw()
        if v.is_rational():
            return v


def _one_gaussian(draw):
    while True:
        zs = draw()
        if sum(1 for z in zs if not z.is_rational()) == 1:
            return zs


def _residue_ops(rng, size, negative):
    from xtl import qkz

    ops = []
    for N, count in size["points"].items():
        for _ in range(count):
            s, beta = _real(rng.s_value), _real(rng.beta_value)
            zs = _one_gaussian(lambda: rng.z_point(N, s, beta))
            for i in range(1, N):
                for prop, fn in (("exchange_reflection", "check_exchange_and_reflection"),
                                 ("reduction", "check_psi_reduction")):
                    want = {"property": prop, "N": N, "i": i, "pass": not negative,
                            "failures": []}
                    ops.append(Op(f"{prop}:N{N}:i{i}",
                                  lambda fn=fn, N=N, i=i, zs=zs, s=s, beta=beta:
                                      getattr(qkz, fn)(N, i, zs, s, beta),
                                  lambda rep, want=want: rep == want))
    return ops


def _stack_ops(rng, size, negative):
    from itertools import product

    from xtl import sixvertex

    def point(n):
        s, t = _real(rng.s_value), _real(rng.nonzero)
        return n, _one_gaussian(lambda: [rng.nonzero() for _ in range(2 * n)]), s, t

    def bump(value):
        return value + 1 if negative else value

    ops = []
    for n, count in size["points"].items():
        words = {"".join(w) for w in product("ud", repeat=2 * n)}
        for _ in range(count):
            def check(routes, words=words):
                enum, alg = routes
                first = min(enum)
                return set(enum) == words and {**enum, first: bump(enum[first])} == alg

            ops.append(Op(f"dual_route_all_words:n{n}",
                          lambda p=point(n): (sixvertex.partition_enum_all_words(*p),
                                              sixvertex.partition_algebraic_all_words(*p)),
                          check))
    # one alternating boundary word, through the automaton and one stack
    for n, count in size["words"].items():
        for _ in range(count):
            n, zs, s, t = point(n)
            alpha = rng.rng.choice("+-")
            ops.append(Op(f"dual_route_word:n{n}",
                          lambda n=n, a=alpha, zs=zs, s=s, t=t: (
                              sixvertex.partition_enum(n, a, zs, s, t),
                              sixvertex.partition_algebraic(n, a, zs, s, t)),
                          lambda routes: bump(routes[0]) == routes[1]))
    for msn in size["yb_max_stack_n"]:
        seed = rng.randint(0, 10 ** 6)

        def check(rep, msn=msn):
            fams = {k: v for k, v in rep.items() if isinstance(v, dict)}
            ok = (rep["passed"] is True and len(fams) == 10 + msn
                  and all(v["trials"] == 1 and not v["failures"] for v in fams.values()))
            return ok != negative

        ops.append(Op(f"yb_identities:stack_n{msn}",
                      lambda seed=seed, msn=msn: sixvertex.check_yb_identities(
                          trials=1, seed=seed, max_stack_n=msn), check))
    return ops


def _symbolic_ops(rng, size, negative):
    from xtl import contour, spinchain, tsasm

    table = [c + 1 if negative else c for c in TSASM_COUNTS]
    sums = {}
    ops = []
    lo = size["n_min"]
    for N in range(lo, size["count_max"] + 1):
        for route, fn in (("integral", lambda N: contour.tsasm_count_integral(N)),
                          ("enum", lambda N: len(tsasm.enumerate_tsasm(N))),
                          ("partition", lambda N: tsasm.count_from_partition(N))):
            ops.append(Op(f"count_{route}:N{N}", lambda fn=fn, N=N: fn(N),
                          lambda c, N=N: c == table[N]))
    for N in range(max(2, lo), size["genfun_max"] + 1):
        ops.append(Op(f"genfun:N{N}",
                      lambda N=N: tsasm.genfun(N).eval_at({"t": 1, "tau": 1}),
                      lambda c, N=N: c == table[N]))

    def symbolic_sum(N):
        sums[N] = contour.sum_components(N)
        return sums[N].eval_at({"x": 0, "tau": 1})

    for N in range(max(2, lo), size["sum_max"] + 1):
        ops.append(Op(f"sum_components:N{N}", lambda N=N: symbolic_sum(N),
                      lambda c, N=N: c == table[N]))
    for N in range(max(2, lo), size["psi_max"] + 1):
        def psi_total(N=N):
            entries = list(contour.psi_components(N).entries.values())
            return sum(entries[1:], entries[0]) == sums[N]
        ops.append(Op(f"psi_components:N{N}", psi_total, lambda eq: eq != negative))
    x = rng.fraction()
    for N in size["eig_ns"]:
        energy = Fraction(-(3 * N - 1), 4) - (1 - x) ** 2 / (2 * x) + negative
        ops.append(Op(f"eigenpair:N{N}",
                      lambda N=N: spinchain.verify_eigenpair(N, x).to_json(),
                      lambda rep, N=N, e=energy: rep == {
                          "N": N, "x": str(x), "eigenvalue": str(e), "residual_zero": True,
                          "magnetization_ok": True, "normalization_ok": True}))
    return ops


def _suite_lines(suite, max_n):
    """Report lines `xtl verify --suite <suite>` prints for --max-N max_n."""
    return {"exchange": 1, "reduction": 1, "zprops": max_n - 1, "yandyy": max_n + 1,
            "gflemma": min(3, max(1, max_n // 2)), "relationsz": max_n + 1,
            "main": max_n + 1, "corollaries": min(max_n, 6) + 1}[suite]


def _cli_ops(rng, size, negative, inprocess):
    seed = rng.randint(0, 10 ** 6)
    ops = []
    for suite, max_n, trials in size["suites"]:
        argv = ["verify", "--suite", suite, "--max-N", str(max_n),
                "--trials", str(trials), "--seed", str(seed)]
        want = _suite_lines(suite, max_n) + negative

        if inprocess:
            def run(argv=argv):
                from xtl import cli
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.dispatch(argv + ["--threads", "1"])
                return code, out.getvalue()
        else:
            def run(argv=argv):
                env = dict(os.environ, PYTHONPATH=str(SRC))
                p = subprocess.run([sys.executable, "-m", "xtl.cli"] + argv
                                   + ["--threads", "2"], cwd=ROOT, env=env,
                                   capture_output=True, text=True, timeout=170)
                return p.returncode, p.stdout

        def check(res, want=want):
            code, text = res
            lines = text.splitlines()
            return (code == 0 and len(lines) == want
                    and all(json.loads(line).get("pass") is True for line in lines))

        ops.append(Op(f"verify:{suite}", run, check))
    return ops


def build_ops(workload, block_seed, size="full", negative=False, inprocess=False):
    """The op list of one block of `workload`, drawn from ExactSampler(block_seed)."""
    from xtl.sampling import ExactSampler

    rng = ExactSampler(block_seed)
    params = SIZES[workload][size]
    if workload == "residue-relations":
        return _residue_ops(rng, params, negative)
    if workload == "stack-identities":
        return _stack_ops(rng, params, negative)
    if workload == "symbolic-counts":
        return _symbolic_ops(rng, params, negative)
    return _cli_ops(rng, params, negative, inprocess)


# ---------------------------------------------------------------------------
# reference measurements
# ---------------------------------------------------------------------------

# Each block times a reference measurement that no change to xtl can speed
# up, and reports how much slower it ran than its nominal time on the 2-vCPU
# Xeon VM the baseline comes from; `run.py` divides the block's times by
# that slowdown.  In-process ops are scaled by a pure-Python loop, and
# cli-verify's ops, which are mostly interpreter start-ups, by the start-up
# of an interpreter without xtl.  Over 30 s windows the start-up tracked the
# cli ops within about 1%, the loop within 3%; the loop tracked residue
# checks within about 3% over 10 s windows.
LOOP_S = 0.004
SPAWN_S = 0.13
SETUP_PROBES = 5     # loop timings right after set-up, to scale set-up by


def reference() -> float:
    """Seconds one fixed piece of pure-Python exact arithmetic takes now.

    The loop uses no xtl code.  It does the same kind of work as xtl
    (Fraction and big-int arithmetic, dict updates), so it slows down as
    xtl does when the host is busy.  The collector is off while it runs,
    so the size of the heap does not change its cost."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc, x = Fraction(0), Fraction(7, 3)
        for k in range(1, 240):
            acc += x / k
            x = x * Fraction(k + 1, k + 2) + 1
        table = {}
        for k in range(4000):
            table[k % 331] = table.get(k % 331, 0) + k * k
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def spawn_reference() -> float:
    """Seconds to start an interpreter that imports the standard-library
    modules `xtl.cli` uses, and to wait for it to exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import fractions, json, multiprocessing.pool"],
                   check=True, timeout=60)
    return time.perf_counter() - t0


class Probe:
    """Timings of one reference measurement, spread through a block so that
    they take `share` of its time."""

    def __init__(self, measure, nominal_s, share):
        self.measure, self.nominal_s, self.share = measure, nominal_s, share
        self.times = []

    def keep_share(self, work_s):
        while sum(self.times) < self.share * (work_s + sum(self.times)):
            self.times.append(self.measure())

    def slowdown(self) -> float:
        return statistics.fmean(self.times) / self.nominal_s


# ---------------------------------------------------------------------------
# one block in this process
# ---------------------------------------------------------------------------

def _digest(value) -> str:
    return hashlib.sha1(repr(value).encode()).hexdigest()[:16]


def run_block(workload, block_seed, spawned_at, size="full", trace=False,
              negative=False, inprocess=False, spans_path=None, setup_only=False) -> dict:
    sys.path.insert(0, str(SRC))
    # every layer, so that set-up pays for all imports and the tracer finds
    # every binding
    import xtl.cli  # noqa: F401
    import xtl.spinchain  # noqa: F401
    import xtl.theorems  # noqa: F401

    ops = build_ops(workload, block_seed, size, negative, inprocess)
    setup_s = time.monotonic() - spawned_at
    # the host's speed right after set-up, to scale set-up by
    after_setup = [reference() for _ in range(SETUP_PROBES)]
    setup = {"setup_s": setup_s, "setup_slowdown": statistics.fmean(after_setup) / LOOP_S}
    if setup_only:
        return setup

    if workload == "cli-verify" and not inprocess:
        probe = Probe(spawn_reference, SPAWN_S, share=0.15)
    else:
        probe = Probe(reference, LOOP_S, share=0.06)
        probe.times = after_setup
    probe.times.append(probe.measure())

    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    results = []
    wall_s = 0.0
    for op in ops:
        probe.keep_share(wall_s)
        t0 = time.perf_counter()
        try:
            value = op.run()
        except Exception as exc:  # a raising op is a failed op, not a crash
            value = f"{type(exc).__name__}: {exc}"
            latency, ok = time.perf_counter() - t0, False
        else:
            latency = time.perf_counter() - t0
            ok = bool(op.check(value))
        results.append([op.label, latency, ok, _digest(value)])
        wall_s += time.perf_counter() - t0
    probe.times.append(probe.measure())

    who = resource.RUSAGE_CHILDREN if workload == "cli-verify" and not inprocess \
        else resource.RUSAGE_SELF
    out = {**setup, "wall_s": wall_s, "ops": results,
           "slowdown": probe.slowdown(), "probes": len(probe.times),
           "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0}
    if tracer:
        out["layers"] = tracer.metrics()
        if spans_path:
            tracer.write_spans(spans_path)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SIZES))
    ap.add_argument("--block-seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--negative-control", action="store_true")
    ap.add_argument("--inprocess", action="store_true",
                    help="cli-verify: call cli.dispatch with 1 worker instead of a subprocess")
    ap.add_argument("--spans", help="write the traced block's spans to this file")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, time the reference loop and stop: a set-up sample")
    a = ap.parse_args(argv)
    res = run_block(a.workload, a.block_seed, a.spawned_at, a.size, a.trace,
                    a.negative_control, a.inprocess, a.spans, a.setup_only)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
