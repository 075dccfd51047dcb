"""Command-line front end.

Subcommands map one-to-one onto the library operations:

    psi --N 4                          component table (JSON)
    sum --N 5                          component-sum polynomial (JSON/text)
    tsasm count --order 13             counts by enum/integral/partition
    tsasm genfun --order 9             generating function (JSON)
    tsasm list --order 9               matrices (text/JSON)
    sixvertex pf --n 2 --alpha -       partition function at an exact point
    spinchain verify --N 8 --x 3/7     exact eigenpair verification (JSON)
    verify --suite all --max-N 6       theorem/property suites (JSON lines)

Every verify suite's checker returns one report type, sampling.TheoremReport,
and prints one line of it: statement, params, pass and the first five
failures.  Three shapes stay as they are, because the benchmark compares
them with ==: the dicts of qkz.check_exchange_and_reflection and
check_psi_reduction (which the exchange and reduction sweeps read), the
family dict of sixvertex.check_yb_identities (the one report built here) and
spinchain.EigenReport.

Exit codes: 0 success, 1 verification failure, 2 usage error.  Output is
byte-stable for fixed flags: polynomial terms are ordered lexicographically
and all scalars print through the canonical exact formats.  XTL_SEED and
XTL_THREADS provide defaults for --seed/--threads (flags win; a malformed
value that no flag overrides is a usage error); neither value affects any
numerical result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections import namedtuple
from fractions import Fraction
from importlib import import_module

from .exact import (DomainError, GaussianRational, MultiLaurent, UsageError,
                    format_scalar, parse_scalar)

__all__ = ["main", "dispatch"]


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="xtl", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--out", help="write output to this path instead of stdout")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("psi", help="eigenvector component table")
    p.set_defaults(run=_cmd_psi)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--x", help="exact value for x (default: symbolic)")
    p.add_argument("--tau", help="exact value for tau (default: symbolic)")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("sum", help="component-sum polynomial")
    p.set_defaults(run=_cmd_sum)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("tsasm", help="totally-symmetric ASM operations")
    p.set_defaults(run=_cmd_tsasm)
    tsub = p.add_subparsers(dest="tsasm_command", required=True)
    pc = tsub.add_parser("count", help="count matrices of one or more odd orders")
    pc.add_argument("--order", type=int, help="odd order 2N+1")
    pc.add_argument("--max-order", type=int, dest="max_order",
                    help="emit a table for all odd orders up to this")
    pc.add_argument("--method", choices=("enum", "integral", "partition"),
                    default="integral")
    pc.add_argument("--format", choices=("csv", "json", "text"), default="text")
    pg = tsub.add_parser("genfun", help="generating function of one order")
    pg.add_argument("--order", type=int)
    pg.add_argument("--N", type=int)
    pg.add_argument("--format", choices=("json", "text"), default="json")
    pl = tsub.add_parser("list", help="list the matrices of one order")
    pl.add_argument("--order", type=int, required=True)
    pl.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("sixvertex", help="staircase six-vertex operations")
    p.set_defaults(run=_cmd_sixvertex)
    ssub = p.add_subparsers(dest="sixvertex_command", required=True)
    pf = ssub.add_parser("pf", help="partition function at an exact point")
    pf.add_argument("--n", type=int, required=True)
    pf.add_argument("--alpha", required=True,
                    help="boundary word over u/d, or + / - for the alternating words")
    pf.add_argument("--z", help="comma-separated 2n exact site values (default all 1)")
    pf.add_argument("--s", required=True, help="exact value with q = s^2")
    pf.add_argument("--t", required=True, help="exact corner weight t")
    pf.add_argument("--method", choices=("enum", "algebraic"), default="enum")

    p = sub.add_parser("spinchain", help="spin-chain operations")
    p.set_defaults(run=_cmd_spinchain)
    csub = p.add_subparsers(dest="spinchain_command", required=True)
    pv = csub.add_parser("verify", help="exact eigenpair verification")
    pv.add_argument("--N", type=int, required=True)
    pv.add_argument("--x", required=True, help="exact rational, e.g. 3/7")

    p = sub.add_parser("verify", help="theorem and property suites")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("--suite", default="all", choices=("all", *_SUITES))
    p.add_argument("--max-N", type=int, dest="max_n", default=6)
    p.add_argument("--trials", type=int, default=20)
    # argparse applies type=int to a string default only when the flag is absent,
    # so a malformed environment value is a usage error unless a flag overrides it
    p.add_argument("--seed", type=int, default=os.environ.get("XTL_SEED", "42"))
    p.add_argument("--threads", type=int, default=os.environ.get("XTL_THREADS", "1"),
                   help="worker processes for independent checks (never affects output)")
    return top


def _emit(ns, text: str) -> None:
    if ns.out:
        try:
            with open(ns.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out {ns.out!r}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def serialize(result, fmt: str) -> str:
    """Bit-stable rendering of a polynomial, count table or matrix list;
    raises UsageError on an unsupported pairing."""
    from .tsasm import matrices_to_text

    if isinstance(result, MultiLaurent):
        if fmt == "json":
            return json.dumps(result.to_json(), separators=(",", ":")) + "\n"
        if fmt == "text":
            return repr(result) + "\n"
    if isinstance(result, list) and result and isinstance(result[0], tuple) \
            and len(result[0]) == 3:
        if fmt == "csv":
            return "N,order,count\n" + "\n".join(
                f"{N},{o},{c}" for N, o, c in result) + "\n"
        if fmt == "json":
            return json.dumps([{"N": N, "order": o, "count": c}
                               for N, o, c in result]) + "\n"
        if fmt == "text":
            return "\n".join(str(c) for _, _, c in result) + "\n"
    if isinstance(result, list) and (not result or isinstance(result[0], list)):
        if fmt == "text":
            return matrices_to_text(result)
        if fmt == "json":
            return json.dumps(result) + "\n"
    raise UsageError(f"cannot serialize {type(result).__name__} as {fmt}")


def _cmd_psi(ns) -> int:
    from .contour import psi_components

    _check_order(2 * ns.N + 1, "psi")
    x = parse_scalar(ns.x) if ns.x else None
    tau = parse_scalar(ns.tau) if ns.tau else None
    table = psi_components(ns.N, x=x, tau=tau)
    if ns.format == "json":
        _emit(ns, json.dumps(table.to_json(), separators=(",", ":")) + "\n")
    else:
        lines = []
        for a in sorted(table.entries):
            v = table.entries[a]
            vs = repr(v) if isinstance(v, MultiLaurent) else format_scalar(v)
            lines.append(f"{','.join(map(str, a)) or '-'}: {vs}")
        _emit(ns, "\n".join(lines) + "\n")
    return 0


def _cmd_sum(ns) -> int:
    from .contour import sum_components

    _check_order(2 * ns.N + 1, "sum")
    _emit(ns, serialize(sum_components(ns.N), ns.format))
    return 0


def _order_to_N(order: int) -> int:
    if order < 1 or order % 2 == 0:
        raise UsageError("order must be a positive odd integer")
    return (order - 1) // 2


# The largest order each tsasm route, and order 2N+1 for psi and sum --N,
# accepts; a larger request cannot finish in reasonable time or memory.
# Measured on a 2-vCPU Xeon, Python 3.11.7:
#   enum (list, count --method enum) builds every matrix: order 19 takes 6 s
#     and 0.17 GB, order 21 has 142,873 matrices (ten times as many);
#   integral: order 23 takes 0.8 s, order 25 takes 19 s in 84 MB (it took
#     88 s when the limit was set, and the limit is kept);
#   partition and genfun walk the column automaton of size n = N//2: at order
#     27 (n = 6) partition takes 5 s and genfun 3 s, both in 0.3 GB; at order
#     29 (n = 7) genfun alone takes 35 s and 3 GB;
#   psi and sum expand the x-free part of the contour integrand once, on
#     packed keys with only tau packed, and apply x to its reads: at N = 11
#     psi takes 1.6 s in 47 MB and sum 1.3 s in 50 MB (8.3 s and 10.0 s,
#     0.17 and 0.19 GB, when x was packed beside tau); the limit is kept
#     until N = 12 is measured.  spinchain verify --N expands psi at a given
#     x and tau = 1, over plain ints (0.6 s at N = 11), and shares the psi
#     limit (at N = 40 it was killed by SIGKILL before it finished);
#   sixvertex pf --n n is checked at order 4n + 1, the order whose count runs
#     the same 2n-site automaton; --alpha + --s 2 --t 3 at unit sites:
#     pf_enum takes 2.8 s in 0.27 GB at n = 6 and 34 s in 2.5 GB at n = 7,
#     pf_algebraic (a dense 2^(2n) stack column) 4.6 s in 23 MB at n = 7 and
#     25 s at n = 8.
_MAX_ORDER = {"enum": 19, "integral": 23, "partition": 27, "genfun": 27,
              "psi": 23, "sum": 23, "pf_enum": 25, "pf_algebraic": 29}


def _check_order(order: int, route: str) -> None:
    if order > _MAX_ORDER[route]:
        raise UsageError(f"order {order} is above {_MAX_ORDER[route]}, the largest "
                         f"order the {route} route can finish")


def _cmd_tsasm(ns) -> int:
    from .contour import tsasm_count_integral
    from .tsasm import count_from_partition, enumerate_tsasm, genfun

    if ns.tsasm_command == "count":
        if (ns.order is None) == (ns.max_order is None):
            raise UsageError("give exactly one of --order / --max-order")
        orders = ([ns.order] if ns.order is not None
                  else list(range(1, ns.max_order + 1, 2)))
        if not orders:
            raise UsageError("--max-order must be at least 1")
        _check_order(max(orders), ns.method)
        method = {"enum": lambda N: len(enumerate_tsasm(N)),
                  "integral": tsasm_count_integral,
                  "partition": count_from_partition}[ns.method]
        rows = [(_order_to_N(o), o, method(_order_to_N(o))) for o in orders]
        _emit(ns, serialize(rows, ns.format))
        return 0

    if ns.tsasm_command == "genfun":
        if (ns.order is None) == (ns.N is None):
            raise UsageError("give exactly one of --order / --N")
        N = ns.N if ns.N is not None else _order_to_N(ns.order)
        _check_order(2 * N + 1, "genfun")
        _emit(ns, serialize(genfun(N), ns.format))
        return 0

    N = _order_to_N(ns.order)
    _check_order(ns.order, "enum")
    _emit(ns, serialize(enumerate_tsasm(N), ns.format))
    return 0


def _scalar_or_var(token: str):
    """Parse an exact scalar; a bare identifier becomes a symbolic variable."""
    try:
        return parse_scalar(token)
    except (ValueError, UsageError):
        if token.isidentifier():
            return MultiLaurent.var(token)
        raise UsageError(f"cannot parse scalar or variable {token!r}") from None


def _cmd_sixvertex(ns) -> int:
    from .sixvertex import partition_algebraic, partition_enum

    _check_order(4 * ns.n + 1, f"pf_{ns.method}")
    s = parse_scalar(ns.s)
    # both routes divide by {s} = s + 1/s and by every site value
    if s == 0 or s * s == -1:
        raise UsageError(f"--s {ns.s!r} makes s or {{s}} zero")
    t = _scalar_or_var(ns.t)
    if ns.z:
        zs = [_scalar_or_var(v) for v in ns.z.split(",")]
        if any(z == 0 for z in zs):
            raise UsageError(f"--z {ns.z!r} has a zero site value")
    else:
        zs = [GaussianRational(1)] * (2 * ns.n)
    symbolic = isinstance(t, MultiLaurent) or any(isinstance(z, MultiLaurent) for z in zs)
    if ns.method == "algebraic":
        if symbolic:
            raise UsageError("the algebraic route needs numeric site values")
        val = partition_algebraic(ns.n, ns.alpha, zs, s, t)
    else:
        val = partition_enum(ns.n, ns.alpha, zs, s, t)
    if isinstance(val, MultiLaurent):
        _emit(ns, serialize(val, "json"))
    else:
        _emit(ns, format_scalar(val) + "\n")
    return 0


def _cmd_spinchain(ns) -> int:
    from .spinchain import verify_eigenpair

    _check_order(2 * ns.N + 1, "psi")  # verify_eigenpair expands psi_components(N)
    try:
        x = Fraction(ns.x)
    except ZeroDivisionError:
        raise UsageError(f"zero denominator in --x {ns.x!r}") from None
    if x == 0:  # the boundary fields divide by x
        raise UsageError("--x must be nonzero")
    rep = verify_eigenpair(ns.N, x)
    _emit(ns, json.dumps(rep.to_json()) + "\n")
    return 0 if rep.passed else 1


# One `xtl verify` suite: the smallest --max-N at which it checks something,
# the largest at which its jobs can finish (-inf and inf where there is no
# such limit), its jobs' params for (max_n, trials, seed), and its checker:
# the module that holds it and the function, read off that module when a job
# runs, so that a job imports only its own module and a wrapper installed on
# the module's attribute (the benchmark's tracer) is what runs.
_Suite = namedtuple("_Suite", "min_n max_n jobs module check")

# The suites in the order `--suite all` runs and prints them.  Each --max-N
# limit is the largest size whose one job took at most about 30 s at
# --trials 1 (trials multiply it) when the limit was set.  Measured on a
# 2-vCPU Xeon, Python 3.11.7, one job per size:
#   exchange and reduction run one job over N = 2..max-N: exchange 9 takes
#     2.6 s, 10 takes 22 s; reduction 9 takes 8.5 s, 10 takes 56 s;
#   zprops N = 9 takes 4.0 s, 10 takes 26 s;
#   yandyy N = 11 takes 3.3 s, 12 takes 33 s;
#   relationsz N = 7 takes 1.3 s, 8 takes 24 s;
#   main N = 11 takes 24 s in 0.2 GB, 12 over 100 s (its component sum is
#     the expansion that psi and sum refuse above N = 11).
# Since the residue sums run in Gaussian integers, exchange 10, zprops 10
# and relationsz 8 also fit in 30 s; the limits are kept, so that no request
# moves between refused and accepted.  ybe ignores --max-N and runs at least
# 20 trials; gflemma always checks n = 1 and caps its own jobs at n = 3,
# corollaries at N = 6, and relationsz runs at most 3 trials above N = 4.
_SUITES = {
    "ybe": _Suite(-math.inf, math.inf,
                  lambda m, t, s: [{"trials": max(t, 20), "seed": s}],
                  "sixvertex", lambda mod: mod.check_yb_identities),
    "exchange": _Suite(2, 9, lambda m, t, s: [{"max_n": m, "trials": t, "seed": s}],
                       "qkz", lambda mod: mod.check_exchange_sweep),
    "reduction": _Suite(2, 9, lambda m, t, s: [{"max_n": m, "trials": t, "seed": s + 1}],
                        "qkz", lambda mod: mod.check_reduction_sweep),
    "zprops": _Suite(2, 9, lambda m, t, s: [{"N": N, "trials": t, "seed": s}
                                            for N in range(2, m + 1)],
                     "qkz", lambda mod: mod.check_Z_properties),
    "yandyy": _Suite(0, 11, lambda m, t, s: [{"N": N, "trials": t, "seed": s}
                                             for N in range(m + 1)],
                     "theorems", lambda mod: mod.check_Y_equals_YY),
    "gflemma": _Suite(-math.inf, math.inf,
                      lambda m, t, s: [{"n": n, "trials": t, "seed": s}
                                       for n in range(1, min(3, max(1, m // 2)) + 1)],
                      "theorems", lambda mod: mod.check_gf_lemma),
    "relationsz": _Suite(0, 7, lambda m, t, s: [{"N": N, "trials": t if N <= 4 else min(t, 3),
                                                 "seed": s} for N in range(m + 1)],
                         "theorems", lambda mod: mod.check_relation_SZ),
    "main": _Suite(0, 11, lambda m, t, s: [{"N": N} for N in range(m + 1)],
                   "theorems", lambda mod: mod.check_main_theorem),
    "corollaries": _Suite(0, math.inf,
                          lambda m, t, s: [{"N": N} for N in range(min(m, 6) + 1)],
                          "theorems", lambda mod: mod.check_corollaries),
}


def _suite_jobs(ns):
    """Declarative (kind, params) job specs for the requested suite; specs are
    plain data so they can cross process boundaries.  A request that would
    check nothing, and so pass vacuously, or that cannot finish is a usage
    error; `all` takes the tightest limits of its suites."""
    if ns.trials < 1:
        raise UsageError("--trials must be at least 1")
    kinds = list(_SUITES) if ns.suite == "all" else [ns.suite]
    low = max(_SUITES[k].min_n for k in kinds)
    high = min(_SUITES[k].max_n for k in kinds)
    if ns.max_n < low:
        raise UsageError(f"--suite {ns.suite} checks nothing below --max-N {low}")
    if ns.max_n > high:
        raise UsageError(f"--suite {ns.suite} cannot finish above --max-N {high}")
    return [(k, p) for k in kinds for p in _SUITES[k].jobs(ns.max_n, ns.trials, ns.seed)]


def _job_size(job):
    """The size parameter a job scales with; ybe has none and sorts last."""
    p = job[1]
    return next((p[k] for k in ("N", "n", "max_n") if k in p), math.inf)


def _run_job(job):
    """Execute one verification job; returns (passed, its report line).
    Top-level so worker processes can import and run it."""
    kind, p = job
    if kind not in _SUITES:
        raise UsageError(f"unknown job kind {kind!r}")
    suite = _SUITES[kind]
    rep = suite.check(import_module(f".{suite.module}", __package__))(**p)
    if kind == "ybe":
        # the one conversion: check_yb_identities keeps its dict of families,
        # because the stack-identities benchmark compares that dict with ==
        from .sampling import TheoremReport

        rep = TheoremReport("yang_baxter_identities", p, rep["passed"],
                            [f for v in rep.values() if isinstance(v, dict)
                             for f in v["failures"]])
    return rep.passed, rep.to_json_line()


def _pool(workers: int):
    import multiprocessing as mp
    return mp.get_context("fork").Pool(workers)


# The parent's job time from which a worker pool can pay for itself: the
# pool's fixed cost of importing multiprocessing, forking the workers and
# tearing them down.  Jobs run smallest first, so a suite whose jobs have
# not taken that long yet has little left to share.  Measured on a 2-vCPU
# Xeon, Python 3.11.7, with the job modules already imported, 2 workers
# mapping two trivial jobs: 41.5 ms median over 25 fresh processes
# (quartiles 35.3-46.2 ms; import 13.6, start 22.4, teardown 3.1 ms).
_POOL_AFTER_S = 0.04


def _cmd_verify(ns) -> int:
    if ns.threads < 1:
        raise UsageError("--threads must be at least 1")
    jobs = _suite_jobs(ns)
    # smallest first in this process, so a suite of small jobs ends before a
    # pool could pay for itself; the results keep suite order
    left = sorted(range(len(jobs)), key=lambda i: _job_size(jobs[i]))
    done = {}
    start = None
    while left:
        # more workers than cores or jobs left cannot help, and the output
        # never depends on it
        workers = min(ns.threads, os.cpu_count() or 1, len(left))
        if (workers > 1 and start is not None
                and time.perf_counter() - start >= _POOL_AFTER_S):
            # largest first, one at a time, so the biggest jobs do not end up
            # queued behind each other on one worker
            left.reverse()
            with _pool(workers) as pool:
                done.update(zip(left, pool.map(_run_job, [jobs[i] for i in left],
                                               chunksize=1)))
            break
        i = left.pop(0)
        done[i] = _run_job(jobs[i])
        if start is None:
            # the clock starts after the first job, which also imports the
            # modules the suite runs; forked workers inherit them
            start = time.perf_counter()
    results = [done[i] for i in range(len(jobs))]
    lines = [line for _, line in results]
    all_ok = all(ok for ok, _ in results)
    _emit(ns, "\n".join(lines) + "\n")
    return 0 if all_ok else 1


# argparse takes a token that starts with "-" for an option unless it is a
# plain number, so a scalar such as -1/2, -i or -1,2 after one of these flags,
# or after an abbreviation of one (argparse accepts --ta for --tau), is joined
# to it as --s=-1/2, the form argparse reads as the value
_SCALAR_FLAGS = ("--x", "--tau", "--z", "--s", "--t")


def _join_scalar_values(argv) -> list:
    out = []
    for arg in argv:
        flag = out[-1] if out else ""
        if (len(flag) > 2 and any(f.startswith(flag) for f in _SCALAR_FLAGS)
                and arg.startswith("-") and not arg.startswith("--")):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def dispatch(argv) -> int:
    """Parse argv and run the mapped operation; returns the exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(_join_scalar_values(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return ns.run(ns)
    except (UsageError, ValueError) as exc:
        if isinstance(exc, DomainError):
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
