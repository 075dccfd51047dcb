"""Contour-integral kernels realized as exact coefficient extraction.

The two integral formulas implemented here (eigenvector components and their
generalized sum, whose x = 0, tau = 1 specialization is the odd-order
totally-symmetric ASM counting integral) integrate a rational function of
auxiliary variables u_1..u_n over small positive circles around 0.  Each
integral is therefore the coefficient of a prescribed monomial in the series
expansion of the integrand at 0:

* numerator factors are ordinary polynomials and are multiplied out exactly;
* a factor 1/(1 - u_1...u_k) is the geometric series in u_1...u_k, of which
  only finitely many terms can reach the wanted monomial;
* truncation caps on every u-exponent keep the intermediate expansion small.

x enters the integrand only through the n factors (u_k + x).  So the
coefficient of u^c is the sum over S in {1..n} of x^(n - |S|) times the
coefficient of u^(c - e_S) in F, the integrand without those factors (e_S
has a 1 at each k in S; a negative exponent reads 0).  F is expanded once
for all reads, and the reads are summed apart by the power of x they
weigh; a given x, real or not, is evaluated after the decode.  At x = 0
each target reads one coefficient, u^(c - (1, ..., 1)).

F's series runs over one coefficient ring, Python int, on packed integer
keys: a u-monomial is one int with a fixed-width field per exponent, biased
so that the top bit of a field is set exactly when its exponent passes its
cap, so a product of monomials is one addition and the cap test one AND.
Every coefficient of F's factors is 1, -1 or tau.  A given real tau is put
into the factors, each cleared to ints over its own denominator; an unknown
or non-real tau becomes a power of two (Kronecker substitution, with the
digit width B derived from the factors), and each read decodes as balanced
base-2^B digits, the coefficients of tau^j, into which a given non-real tau
is evaluated.  With both values given and real (the counting integral:
x = 0, tau = 1) the expansion runs over plain ints and nothing is decoded.

F is not multiplied out whole.  Its factors are split at the first that
touches u_n, the last variable: the head, which has no u_n, and the tail
are each expanded from 1, and the read of u^t sums tail[f] * head[t - f]
over the tail's monomials with f_n = t_n, one lookup each.  t - f is one
subtraction of packed keys: where some t_k < f_k a field borrows, and its
top bit then marks the result as no key, so no field needs a spare bit
(derived in _expand).  With no tail (n = 0, or no factor in u_n) each read
is one lookup in the head.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import lshift
from typing import Mapping

from .exact import DomainError, MultiLaurent, Scalar, UsageError, gaussian_ints

__all__ = ["ChainShape", "ComponentTable", "psi_components", "sum_components",
           "tsasm_count_integral"]


@dataclass(frozen=True)
class ChainShape:
    """Derived integers for a chain of N sites: n = floor(N/2), nprime = ceil(N/2)."""

    N: int
    n: int
    nprime: int
    eps: int

    @staticmethod
    def of(N: int) -> "ChainShape":
        if N < 0:
            raise UsageError("N must be >= 0")
        n = N // 2
        return ChainShape(N, n, N - n, N - 2 * n)


@dataclass(frozen=True)
class ComponentTable:
    """All nontrivial eigenvector components of a chain, indexed by the strictly
    increasing tuples of down-spin positions.  Entries come from one
    expansion of the x-free part of the integrand, with x applied to its
    reads: MultiLaurent in (x, tau), a given x or tau having exponent 0.
    With both given they are scalars as the arithmetic gives them: int or
    Fraction when both values are real, GaussianRational when one is not (a
    zero entry may still be an int or Fraction)."""

    shape: ChainShape
    entries: Mapping[tuple, MultiLaurent | Scalar]

    def to_json(self) -> dict:
        items = []
        for a in sorted(self.entries):
            # adding to the zero polynomial lifts a scalar entry to a constant
            p = MultiLaurent.const(0, ("x", "tau")) + self.entries[a]
            items.append({"a": list(a), "poly": p.to_json()})
        return {"N": self.shape.N, "n": self.shape.n, "entries": items}


# ---------------------------------------------------------------------------
# truncated series in the u variables
# ---------------------------------------------------------------------------

def _mul_factor(series: dict, factor, guard: int) -> dict:
    """Multiply a truncated u-series by a short factor, both on packed keys,
    dropping every monomial that passes a cap (the sum sets a guard bit; it
    can never reach a target later, since every factor has nonnegative
    u-exponents).  The first term fills a new dict; no coefficient of series
    or factor is 0, so a later sum that cancels to 0 has a key to delete."""
    (de, fc), *rest = factor
    out = {ne: c * fc for e, c in series.items() if not (ne := e + de) & guard}
    get = out.get
    for de, fc in rest:
        for e, c in series.items():
            ne = e + de
            if ne & guard:
                continue
            s = get(ne, 0) + c * fc
            if s:
                out[ne] = s
            else:
                del out[ne]
    return out


def _unit(i: int, n: int, p: int = 1) -> tuple:
    e = [0] * n
    e[i] = p
    return tuple(e)


def _caps(shape: ChainShape) -> tuple:
    """The largest u-exponents that can still reach a target monomial."""
    return tuple(shape.nprime + k for k in range(shape.n))


def _factors(shape: ChainShape, tau, geometric: bool, caps) -> list:
    """The factors of the integrand other than the n factors (u_k + x); with
    geometric, also the n geometric series 1/(1 - u_1...u_k) cut at caps.
    They come ordered by the highest u-index each touches, so the series
    takes on one variable at a time.  tau is placed as given, a None too,
    and every other coefficient is 1 or -1."""
    n = shape.n
    zero = (0,) * n
    fs = []
    for j in range(n):
        ej = _unit(j, n)
        if shape.eps:
            fs.append([(zero, 1), (ej, tau), (_unit(j, n, 2), 1)])
        for i in range(j + 1):
            # (1 - u_i u_j), including i == j
            fs.append([(zero, 1), (tuple(a + b for a, b in zip(_unit(i, n), ej)), -1)])
        for i in range(j):
            ei = _unit(i, n)
            eij = tuple(a + b for a, b in zip(ei, ej))
            fs += [[(ej, 1), (ei, -1)], [(zero, 1), (ej, tau), (eij, 1)],
                   [(zero, tau), (ei, 1), (ej, 1)]]
        if geometric:
            fs.append([(tuple(m * (i <= j) for i in range(n)), 1)
                       for m in range(min(caps[: j + 1]) + 1)])
    return fs


def _cleared(factors) -> tuple:
    """Each factor times the lcm of its coefficients' denominators, with its
    zero terms dropped; returns the integer factors and the product D of
    those lcms, which the product of the factors carries as a denominator."""
    out, D = [], 1
    for f in factors:
        d = lcm(*(c.denominator for _, c in f))
        out.append([(e, c.numerator * (d // c.denominator)) for e, c in f if c])
        D *= d
    return out, D


def _expand(caps: tuple, factors, targets) -> list:
    """The coefficients of the u-monomials targets in the product of integer
    factors, truncated at caps.

    A monomial's key is one int: field k holds e_k + bias_k in w bits, with
    bias_k = 2^(w-1) - 1 - cap_k, so e_k <= cap_k exactly when the top bit
    of the field is clear.  w leaves room for the largest cap plus the
    largest factor step, so adding a step to a kept key never carries out
    of a field, and one AND with the top bits (guard) finds every exponent
    past its cap.  The targets lie within the caps and are packed alike.

    The factors come ordered by the highest variable each touches.  The
    head, every factor before the first that touches u_n, and the tail, the
    rest, are each expanded from 1.  The head has no u_n, so the coefficient
    of u^t is the sum of tail[f] * head[t - f] over the tail's monomials f
    with f_n = t_n: one lookup in the head for each.
    """
    step = max((v for f in factors for e, _ in f for v in e), default=0)
    w = (max(caps, default=0) + step).bit_length() + 1
    top = 1 << (w - 1)
    bias = sum((top - 1 - cap) << (w * k) for k, cap in enumerate(caps))
    guard = sum(top << (w * k) for k in range(len(caps)))
    shifts = range(0, w * len(caps), w)

    def key(e) -> int:
        return sum(map(lshift, e, shifts))

    def product(series, fs) -> dict:
        for f in fs:
            series = _mul_factor(series, [(key(e), c) for e, c in f], guard)
        return series

    n = len(caps)
    cut = next((i for i, f in enumerate(factors) if n and any(e[-1] for e, _ in f)),
               len(factors))
    head = product({bias: 1}, factors[:cut])
    # the tail's terms by the field of u_n, the highest in a key
    last = w * max(n - 1, 0)
    slices: dict = {}
    for b, c in product({bias: 1}, factors[cut:]).items():
        slices.setdefault(b >> last, []).append((b, c))
    keys = [key(t) + bias for t in targets]
    # The read of t at a tail key b = key(f) + bias is the head key
    # key(t) + 2 bias - b, whose field k is g_k = bias_k + t_k - f_k, with
    # 0 <= t_k, f_k <= cap_k <= 2^(w-1) - 1, so -2^(w-1) < g_k < 2^(w-1).
    # If every g_k >= 0, the int has exactly these fields, and it is a head
    # key exactly when each g_k >= bias_k (t_k >= f_k) and the head holds
    # u^(t - f).  Otherwise the lowest negative field borrows from the one
    # above and holds 2^w + g_k, whose top bit is set, so the int is no key
    # (nor is a negative int) and reads 0.  So no field needs a spare bit.
    get = head.get
    return [sum(c * get(r + bias - b, 0) for b, c in slices.get(r >> last, ()))
            for r in keys]


def _digit_bits(factors, weight: int) -> int:
    """Digit width B for the packed expansion of factors whose coefficients
    are 1, -1 or tau, times further factors of 1-norm weight in all (see the
    derivation in _extract)."""
    bound = weight
    for f in factors:
        bound *= len(f)
    return bound.bit_length() + 1


def _rational(v):
    """A given value as an int or Fraction when it is real, else None (an
    unknown, or a value that is not real).  A value that is not an exact
    scalar is a UsageError."""
    if v is None or isinstance(v, (int, Fraction)):
        return v
    (_,), (im,), _ = gaussian_ints([v])
    return None if im else v.re


def _decode(packed: int, B: int) -> dict:
    """packed read as balanced base-2^B digits: the nonzero digits, by place."""
    digits = {}
    k = 0
    while packed:
        d = packed & ((1 << B) - 1)
        if d >> (B - 1):
            d -= 1 << B
        packed = (packed - d) >> B
        if d:
            digits[k] = d
        k += 1
    return digits


def _extract(shape: ChainShape, geometric: bool, targets, x, tau) -> list:
    """The coefficients of the u-monomials targets in the expanded integrand,
    as polynomials in (x, tau), or evaluated at a given x and/or tau."""
    # x^i weighs the reads c - e_S with |S| = n - i (see the module
    # docstring): groups[t][i] lists them for target t, and a power that x
    # cannot weigh (at x = 0, every i > 0) makes no reads.  F, the product
    # of _factors, is expanded once, truncated at the componentwise largest
    # read.  A given real tau is put into the factors, each factor is
    # cleared to ints over its own denominator, and the product D of those
    # denominators divides each coefficient once, at the end.  An unknown
    # or non-real tau becomes T = 2^B (Kronecker substitution), so F
    # expands once over Z.  What is decoded at a target c is each
    # P_i = sum over |S| = n - i of [u^(c - e_S)] F, the coefficient of
    # x^i u^c in the product of F's integer factors and the n factors
    # (u_k + x).  Every coefficient of a product, truncated or not, as a
    # polynomial in tau, is at most the product of its factors' coefficient
    # 1-norms with tau set to 1 (a product's 1-norm is at most the product
    # of its factors' 1-norms; every coefficient of a factor is 1, -1 or
    # tau, so at tau = 1 a factor's 1-norm is its term count, the x
    # factors' 2^n together), so B = bit length of that bound + 1 keeps
    # every digit inside the balanced range [-2^(B-1), 2^(B-1)).  The
    # factors are built once, with None for tau: B is read off their
    # lengths, then T takes tau's place.
    n = shape.n
    xr, tr = _rational(x), _rational(tau)
    powers = [0] if xr == 0 else range(n + 1)
    groups = [[[tuple(v - (k in S) for k, v in enumerate(c))
                for S in combinations([k for k, v in enumerate(c) if v], n - i)]
               for i in powers] for c in targets]
    wanted = list({r for g in groups for rs in g for r in rs})
    caps = tuple(max((r[k] for r in wanted), default=0) for k in range(n))
    if tr is None:
        factors = _factors(shape, None, geometric, caps)
        B = _digit_bits(factors, 1 << n)
        factors, D = [[(e, 1 << B if c is None else c) for e, c in f] for f in factors], 1
    else:
        factors, D = _cleared(_factors(shape, tr, geometric, caps))
    coef = dict(zip(wanted, _expand(caps, factors, wanted)))
    # a given x, and a given tau that is not real, are evaluated after the
    # decode, a real x as the int or Fraction _rational gives.  x's powers
    # come last, so that each factor 1 meets d while it is still an int
    xs = [1] * (n + 1) if x is None else [(x if xr is None else xr) ** i for i in powers]
    te = tau if tr is None else None
    out = []
    for g in groups:
        terms: dict = {}
        for i, rs in zip(powers, g):
            v = sum(coef[r] for r in rs)
            for j, d in (_decode(v, B) if tr is None else {0: v}).items():
                if d:
                    e = (i if x is None else 0, j if te is None else 0)
                    d = d * (1 if te is None else te ** j) * xs[i]
                    terms[e] = terms.get(e, 0) + d
        out.append(terms)
    scale = 1 if D == 1 else Fraction(1, D)
    if x is not None and tau is not None:
        return [t.get((0, 0), 0) * scale for t in out]
    return [MultiLaurent(("x", "tau"), {e: c * scale for e, c in t.items()})
            for t in out]


def psi_components(N: int, x=None, tau=None) -> ComponentTable:
    """All C(N, n) eigenvector components as exact polynomials in (x, tau).

    The component at positions a_1 < ... < a_n is the coefficient of
    prod_k u_k^(N - a_{n+1-k}) in the expanded integrand.  A given x or tau
    is substituted; with both given the entries are scalars.
    """
    shape = ChainShape.of(N)
    n = shape.n
    tuples = list(combinations(range(1, N + 1), n))
    targets = [tuple(N - a[n - k] for k in range(1, n + 1)) for a in tuples]
    values = _extract(shape, False, targets, x, tau)
    return ComponentTable(shape, dict(zip(tuples, values)))


def sum_components(N: int, x=None, tau=None):
    """The generalized component sum as an exact polynomial in (x, tau), or
    its value at a given x and/or tau.

    Agrees with the sum of all psi_components entries; the conventions for
    N = 0, 1 give the constant 1.
    """
    shape = ChainShape.of(N)
    return _extract(shape, True, [_caps(shape)], x, tau)[0]


def tsasm_count_integral(N: int) -> int:
    """The number of totally-symmetric ASMs of order 2N+1 by iterated
    coefficient extraction: the sum's integrand at x = 0, tau = 1, expanded
    over plain ints."""
    shape = ChainShape.of(N)
    count = _extract(shape, True, [_caps(shape)], 0, 1)[0]
    if not isinstance(count, int):
        raise DomainError(f"coefficient extraction gave a non-integer count {count!r}")
    return count
