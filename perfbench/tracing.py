"""Per-layer tracing of xtl from outside the package.

`Tracer.install()` replaces the public entry points of each xtl layer with
wrappers, at every place the function object is bound: module attributes
(including `from x import f` copies in other modules) and class attributes
(`GaussianRational.__rmul__` is the same function as `__mul__`).  It then
checks that no binding of an original survives.

Layer functions become spans (name, start, end, parent) kept in memory; the
scalar operations of `xtl.exact`, called hundreds of thousands of times per
block, are only counted and timed as leaf totals.  `metrics()` turns both
into the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

# (module, attribute, (counter metric, size of one call) or None)
SPANS = [
    ("exact", "interpolate_laurent",
     ("exact.interpolate_laurent.points", lambda args, result: len(args[1]))),
    ("contour", "psi_components", None),
    ("contour", "sum_components", None),
    ("contour", "tsasm_count_integral", None),
    ("qkz", "psi_vector", None),
    ("qkz", "psi_vector_poly_in_z", None),
    ("qkz", "check_exchange_and_reflection", None),
    ("qkz", "check_psi_reduction", None),
    ("operators", "apply_two_site", None),
    ("operators", "apply_one_site", None),
    ("sixvertex", "apply_operator_stack", None),
    ("sixvertex", "partition_enum", None),
    ("sixvertex", "partition_enum_all_words", None),
    ("sixvertex", "partition_algebraic_all_words", None),
    ("sixvertex", "enumerate_configs",
     ("sixvertex.enumerate_configs.configs", lambda args, result: len(result))),
    ("sixvertex", "check_yb_identities", None),
    ("tsasm", "enumerate_tsasm", ("tsasm.matrices_built", lambda args, result: len(result))),
    ("tsasm", "genfun", None),
    ("tsasm", "count_from_partition", None),
    ("spinchain", "verify_eigenpair", None),
    ("spinchain", "apply_hamiltonian_sector", None),
    ("theorems", "check_main_theorem", None),
    ("theorems", "check_corollaries", None),
    ("theorems", "check_Y_equals_YY", None),
    ("theorems", "check_gf_lemma", None),
    ("theorems", "check_relation_SZ", None),
    ("cli", "_run_job", None),
]

# The per-layer metrics reported by a traced run, in BENCHMARK.json order,
# with their units.  Span metrics are <span>.calls / .s / .self_s.
METRICS = {
    "exact.gr_mul.calls": "count",
    "exact.gr_mul.s": "s",
    "exact.gr_mul.operand_bits_mean": "bits",
    "exact.gr_add.calls": "count",
    "exact.gr_inverse.calls": "count",
    "exact.gr_inverse.s": "s",
    "exact.ml_mul.calls": "count",
    "exact.ml_mul.s": "s",
    "exact.interpolate_laurent.calls": "count",
    "exact.interpolate_laurent.points": "count",
    "exact.interpolate_laurent.s": "s",
    "contour.psi_components.calls": "count",
    "contour.psi_components.s": "s",
    "contour.sum_components.calls": "count",
    "contour.sum_components.s": "s",
    "contour.tsasm_count_integral.calls": "count",
    "contour.tsasm_count_integral.s": "s",
    "qkz.psi_vector.calls": "count",
    "qkz.psi_vector.self_s": "s",
    "qkz.psi_vector_poly_in_z.calls": "count",
    "qkz.psi_vector_poly_in_z.self_s": "s",
    "qkz.check_exchange_and_reflection.s": "s",
    "qkz.check_psi_reduction.s": "s",
    "operators.apply_two_site.calls": "count",
    "operators.apply_two_site.s": "s",
    "operators.apply_one_site.calls": "count",
    "operators.apply_one_site.s": "s",
    "sixvertex.apply_operator_stack.calls": "count",
    "sixvertex.apply_operator_stack.self_s": "s",
    "sixvertex.partition_enum.calls": "count",
    "sixvertex.partition_enum.s": "s",
    "sixvertex.partition_enum_all_words.calls": "count",
    "sixvertex.partition_enum_all_words.s": "s",
    "sixvertex.partition_algebraic_all_words.s": "s",
    "sixvertex.enumerate_configs.calls": "count",
    "sixvertex.enumerate_configs.configs": "count",
    "sixvertex.enumerate_configs.s": "s",
    "sixvertex.check_yb_identities.s": "s",
    "tsasm.enumerate_tsasm.calls": "count",
    "tsasm.enumerate_tsasm.s": "s",
    "tsasm.matrices_built": "count",
    "tsasm.genfun.s": "s",
    "tsasm.count_from_partition.s": "s",
    "spinchain.verify_eigenpair.calls": "count",
    "spinchain.verify_eigenpair.s": "s",
    "spinchain.apply_hamiltonian_sector.s": "s",
    "theorems.check_main_theorem.s": "s",
    "theorems.check_corollaries.s": "s",
    "theorems.check_Y_equals_YY.s": "s",
    "theorems.check_gf_lemma.s": "s",
    "theorems.check_relation_SZ.s": "s",
    "cli.job.count": "count",
    "cli.job.max_s": "s",
    "cli.job.sum_s": "s",
    "trace.overhead_frac": "ratio",
}

COUNTERS = {c[0] for _, _, c in SPANS if c}

# Metrics that repeat exactly for a given seed.
EXACT = {name for name, unit in METRICS.items() if unit == "count"}


def _bits(x) -> int:
    if isinstance(x, int):
        return x.bit_length()
    if isinstance(x, Fraction):
        return x.numerator.bit_length() + x.denominator.bit_length()
    return _bits(x.re) + _bits(x.im)


class Tracer:
    """Spans and leaf totals for one traced block."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self._open = []        # indices of the spans on the call stack
        self.leaf = {}         # name -> [calls, seconds]
        self.counters = {}     # name -> total

    # -- wrappers -------------------------------------------------------------
    def _span(self, name, fn, counter):
        spans, open_ = self.spans, self._open
        counters = self.counters

        def wrapped(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            spans.append(span)
            open_.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_.pop()
            if counter:
                key, size = counter
                counters[key] = counters.get(key, 0) + size(args, result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def _leaf(self, name, fn, timed=True, bits=False):
        tot = self.leaf.setdefault(name, [0, 0.0])
        counters = self.counters
        clock = time.perf_counter

        if not timed:
            def wrapped(a, *rest):
                tot[0] += 1
                return fn(a, *rest)
        elif bits:
            def wrapped(a, b):
                tot[0] += 1
                if isinstance(b, (int, Fraction, type(a))):
                    counters["operands"] = counters.get("operands", 0) + 2
                    counters["operand_bits"] = (counters.get("operand_bits", 0)
                                                + _bits(a) + _bits(b))
                t0 = clock()
                r = fn(a, b)
                tot[1] += clock() - t0
                return r
        else:
            def wrapped(a, *rest):
                tot[0] += 1
                t0 = clock()
                r = fn(a, *rest)
                tot[1] += clock() - t0
                return r

        wrapped.__wrapped__ = fn
        return wrapped

    # -- installation -----------------------------------------------------------
    def install(self):
        """Wrap every binding of each traced function in the loaded xtl modules."""
        import importlib

        mods = {name: importlib.import_module(f"xtl.{name}") for name in
                ("exact", "contour", "qkz", "operators", "sixvertex", "tsasm",
                 "spinchain", "theorems", "cli", "sampling")}
        gr, ml = mods["exact"].GaussianRational, mods["exact"].MultiLaurent
        plan = [(getattr(mods[m], a), self._span(
                    "cli.job" if a == "_run_job" else f"{m}.{a}", getattr(mods[m], a), c))
                for m, a, c in SPANS]
        plan += [
            (gr.__mul__, self._leaf("exact.gr_mul", gr.__mul__, bits=True)),
            (gr.__add__, self._leaf("exact.gr_add", gr.__add__, timed=False)),
            (gr.inverse, self._leaf("exact.gr_inverse", gr.inverse)),
            (ml.__mul__, self._leaf("exact.ml_mul", ml.__mul__)),
        ]
        owners = [m for name, m in sys.modules.items()
                  if name == "xtl" or name.startswith("xtl.")]
        owners += [v for m in list(owners) for v in vars(m).values()
                   if isinstance(v, type) and v.__module__.startswith("xtl")]
        for orig, wrapper in plan:
            hits = 0
            for owner in owners:
                for attr, val in list(vars(owner).items()):
                    if val is orig:
                        setattr(owner, attr, wrapper)
                        hits += 1
            if not hits:
                raise RuntimeError(f"trace: no binding found for {orig!r}")
        survivors = [f"{getattr(o, '__name__', o)}.{a}" for o in owners
                     for a, v in vars(o).items()
                     if any(v is orig for orig, _ in plan)]
        if survivors:
            raise RuntimeError(f"trace: unwrapped bindings remain: {survivors}")

    # -- results ------------------------------------------------------------------
    def metrics(self) -> dict:
        """Per-layer totals of this block (trace.overhead_frac is added by the caller)."""
        calls, total, self_s = {}, {}, {}
        for name, start, end, parent in self.spans:
            d = end - start
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + d
            self_s[name] = self_s.get(name, 0.0) + d
            if parent >= 0:
                pname = self.spans[parent][0]
                self_s[pname] -= d
        jobs = [end - start for name, start, end, _ in self.spans if name == "cli.job"]
        out = {}
        for name in METRICS:
            if name == "trace.overhead_frac":
                continue
            if name == "cli.job.count":
                out[name] = len(jobs)
            elif name == "cli.job.max_s":
                out[name] = max(jobs, default=0.0)
            elif name == "cli.job.sum_s":
                out[name] = sum(jobs)
            elif name == "exact.gr_mul.operand_bits_mean":
                n = self.counters.get("operands", 0)
                out[name] = self.counters.get("operand_bits", 0) / n if n else 0.0
            elif name in COUNTERS:
                out[name] = self.counters.get(name, 0)
            else:
                base, kind = name.rsplit(".", 1)
                if base in self.leaf:
                    out[name] = self.leaf[base][0] if kind == "calls" else self.leaf[base][1]
                else:
                    out[name] = {"calls": calls, "s": total, "self_s": self_s}[kind].get(base, 0)
        return out

    def write_spans(self, path: str) -> None:
        """Write the recorded spans as JSON lines (name, start, end, parent)."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
