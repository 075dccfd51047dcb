"""Seeded sampling of exact nondegenerate parameter points.

Values are small Gaussian rationals with numerators and denominators bounded
by 20 in absolute value.  Site-value tuples are rejected until they avoid
every pole collision of the residue evaluation: pairwise z_i != +-z_j,
ratios z_i/z_j != +-q^{+-1}, and products z_i z_j != +-1/q^2 (including
i = j).  That set is symmetric in the sites, a superset of the points the
residue tables refuse, which leave out the removable collisions.

The report every sampled checker returns, `TheoremReport`, lives here too:
the modules that draw points import this one, and it imports none of them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import DegeneratePointError, GaussianRational, UsageError, inv

__all__ = ["ExactSampler", "TheoremReport", "half_sites", "z_point_degenerate"]

_I = GaussianRational(0, 1)
_BOUND = 20            # numerators and denominators are drawn from 1.._BOUND
_GAUSSIAN_PROB = 0.2   # chance that a nonzero value gets an imaginary part


def half_sites(ws, odd: bool) -> list:
    """The half-specialized site tuple (w_1, 1/w_1, ..., w_n, 1/w_n[, 1]), with
    the trailing 1 for odd size: the point where the generalized sum and the
    boundary overlap are both evaluated.  A zero w raises DegeneratePointError."""
    zs = []
    for w in ws:
        if not w:
            raise DegeneratePointError("w values must be nonzero")
        zs += [w, inv(w)]
    if odd:
        zs.append(GaussianRational(1))
    return zs


def z_point_degenerate(zs, s) -> bool:
    """Whether the site values zs meet a pole collision at s.  The set is a
    superset of the one on which `qkz._ResidueTables` raises
    DegeneratePointError (for two or more sites and q^2 != 1), not a copy of
    it: the tables accept the removable collisions z_k = +-z_j/q and
    z_j z_k = +-q^-2 (j < k), whose brackets they only multiply by.  It is
    symmetric in the sites, so that the swapped point of the exchange check
    and the reflected point are generic too.  The sampler draws its points
    with it; curves through degenerate points leave the test to the residue
    evaluation itself."""
    q = s * s
    q2i = inv(q * q)
    for j, zj in enumerate(zs):
        zz = zj * zj
        if zz == q2i or zz == -q2i:
            return True
        for k in range(j + 1, len(zs)):
            zk = zs[k]
            if zj == zk or zj == -zk:
                return True
            r = zj * inv(zk)
            if r == q or r == -q or inv(r) == q or inv(r) == -q:
                return True
            p = zj * zk
            if p == q2i or p == -q2i:
                return True
    return False


class ExactSampler:
    """Deterministic source of exact random values and nondegenerate points."""

    def __init__(self, seed: int = 42):
        self.rng = random.Random(seed)

    def randint(self, a: int, b: int) -> int:
        return self.rng.randint(a, b)

    def fraction(self) -> Fraction:
        num = self.rng.randint(1, _BOUND) * self.rng.choice((1, -1))
        den = self.rng.randint(1, _BOUND)
        return Fraction(num, den)

    def nonzero(self) -> GaussianRational:
        while True:
            im = self.fraction() if self.rng.random() < _GAUSSIAN_PROB else 0
            v = GaussianRational(self.fraction(), im)
            if v:
                return v

    def s_value(self) -> GaussianRational:
        while True:
            v = self.nonzero()
            if v != 1 and v != -1 and v != _I and v != -_I:
                return v

    def beta_value(self) -> GaussianRational:
        while True:
            v = self.nonzero()
            if v != 1 and v != -1:
                return v

    def dense_vector(self, L: int) -> list:
        return [GaussianRational(self.rng.randint(-5, 5)) for _ in range(1 << L)]

    def z_point(self, N: int, s, beta=None) -> tuple:
        """Site values with the residue nondegeneracy conditions, kept valid
        under inverting the first value (reflection) and, when beta is given,
        with [beta z_j] nonzero everywhere (boundary matrix)."""
        while True:
            zs = tuple(self.nonzero() for _ in range(N))
            if z_point_degenerate(zs, s):
                continue
            if z_point_degenerate((inv(zs[0]),) + zs[1:], s):
                continue
            if beta is not None and any((beta * z) ** 2 == 1 for z in zs):
                continue
            return zs

    def w_point(self, N: int, s) -> tuple:
        """Half-specialization-ready w values for a chain of N sites: the
        induced site tuple half_sites(ws, N odd) is nondegenerate.  That also
        keeps the rescaling divisors qkz.y_divisor and sixvertex.yy_divisor
        nonzero: each of their zeros (w^2 = q, w^2 = +-q^2, w = +-q^{+-1} at
        odd size) is a pole collision of these sites."""
        n = N // 2
        while True:
            ws = tuple(self.nonzero() for _ in range(n))
            if not z_point_degenerate(half_sites(ws, N % 2), s):
                return ws


@dataclass
class TheoremReport:
    """The outcome of one verification: a statement checked at the given
    params, passed unless a comparison failed.  `skipped` counts trials that
    met a degenerate point and `subchecks` the comparisons made, by name."""
    statement: str
    params: dict
    passed: bool = True
    failures: list = field(default_factory=list)
    skipped: int = 0
    subchecks: dict = field(default_factory=dict)

    def fail(self, **info):
        """Record a failed comparison; a value JSON holds as it is (a str or
        an int) is kept, anything else is recorded as its repr."""
        self.passed = False
        self.failures.append({k: v if isinstance(v, (str, int)) else repr(v)
                              for k, v in info.items()})

    def to_json_line(self) -> str:
        """The `xtl verify` line: statement, params, pass and the first five
        failures (the report keeps them all)."""
        return json.dumps({"statement": self.statement, "params": self.params,
                           "pass": self.passed, "failures": self.failures[:5]},
                          sort_keys=True)


def _sampled(statement: str, trials: int, seed: int, least: int = 0, **size):
    """The report and the sampler of a check over `trials` sampled points at
    one size; a check of no points, or at a size below `least` (where it has
    nothing to check), would pass without doing its work, so it is refused."""
    (name, value), = size.items()
    if trials < 1 or value < least:
        raise UsageError(f"need {name} >= {least} and trials >= 1")
    return (TheoremReport(statement, {**size, "trials": trials, "seed": seed}),
            ExactSampler(seed))
