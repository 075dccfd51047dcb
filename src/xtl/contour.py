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

The series runs over one coefficient ring, Python int, on packed integer
keys: a u-monomial is one int with a fixed-width field per exponent, biased
so that the top bit of a field is set exactly when its exponent passes its
cap, so a product of monomials is one addition and the cap test one AND.
Every factor coefficient is 1, -1, x or tau.  Only the unknowns are packed
into the coefficients: a given real x or tau is put into the factors, each
cleared to ints over its own denominator, and an unknown becomes a power of
two (Kronecker substitution, with the digit width B derived from the
factors).  Each wanted coefficient decodes as balanced base-2^B digits into
a MultiLaurent in (x, tau), over the product of the denominators; a given
non-real value is packed like an unknown and evaluated into the digits.
With both values given and real (the counting integral: x = 0, tau = 1) the
expansion runs over plain ints and nothing is decoded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
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
    expansion on packed u-keys with only the unknowns packed: MultiLaurent
    in (x, tau), a given x or tau having exponent 0.  With both given they
    are scalars as the arithmetic gives them: int or Fraction when both
    values are real, GaussianRational when one is not (a zero entry may
    still be an int or Fraction)."""

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


def _factors(shape: ChainShape, x, tau, geometric: bool) -> list:
    """The polynomial factors shared by the component and sum integrands; with
    geometric, then the n geometric series 1/(1 - u_1...u_k) cut at the caps."""
    n = shape.n
    zero = (0,) * n
    fs = []
    for k in range(n):
        fs.append([(_unit(k, n), 1), (zero, x)])
        if shape.eps:
            fs.append([(zero, 1), (_unit(k, n), tau), (_unit(k, n, 2), 1)])
    for i in range(n):
        for j in range(i, n):
            # (1 - u_i u_j), including i == j
            e = list(zero)
            e[i] += 1
            e[j] += 1
            fs.append([(zero, 1), (tuple(e), -1)])
    for i in range(n):
        for j in range(i + 1, n):
            ei, ej = _unit(i, n), _unit(j, n)
            eij = tuple(a + b for a, b in zip(ei, ej))
            fs.append([(ej, 1), (ei, -1)])
            fs.append([(zero, 1), (ej, tau), (eij, 1)])
            fs.append([(zero, tau), (ei, 1), (ej, 1)])
    if geometric:
        caps = _caps(shape)
        for k in range(n):
            step = tuple(1 if i <= k else 0 for i in range(n))
            fs.append([(tuple(m * s for s in step), 1)
                       for m in range(min(caps[: k + 1]) + 1)])
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


def _expand(shape: ChainShape, factors, targets) -> list:
    """The coefficients of the u-monomials targets in the product of integer
    factors, truncated at the caps.

    A monomial's key is one int: field k holds e_k + bias_k in w bits, with
    bias_k = 2^(w-1) - 1 - cap_k, so e_k <= cap_k exactly when the top bit
    of the field is clear.  w leaves room for the largest cap plus the
    largest factor step, so adding a step to a kept key never carries out
    of a field, and one AND with the top bits (guard) finds every exponent
    past its cap.  The targets lie within the caps and are packed alike.
    """
    caps = _caps(shape)
    step = max((v for f in factors for e, _ in f for v in e), default=0)
    w = (max(caps, default=0) + step).bit_length() + 1
    top = 1 << (w - 1)
    bias = sum((top - 1 - cap) << (w * k) for k, cap in enumerate(caps))
    guard = sum(top << (w * k) for k in range(shape.n))

    def key(e) -> int:
        return sum(v << (w * k) for k, v in enumerate(e))

    series = {bias: 1}
    for f in factors:
        series = _mul_factor(series, [(key(e), c) for e, c in f], guard)
    return [series.get(key(t) + bias, 0) for t in targets]


def _digit_bits(factors) -> int:
    """Digit width B for the packed expansion of integer factors, given with
    the packed variables set to 1 (see the derivation in _extract)."""
    bound = 1
    for f in factors:
        bound *= sum(abs(c) for _, c in f)
    return bound.bit_length() + 1


def _rational(v):
    """A given value as an int or Fraction when it is real, else None (an
    unknown, or a value that is not real).  A value that is not an exact
    scalar is a UsageError."""
    if v is None or isinstance(v, (int, Fraction)):
        return v
    (_,), (im,), _ = gaussian_ints([v])
    return None if im else v.re


def _decode(packed: int, B: int, W: int, x_packed: bool, x, tau) -> dict:
    """Read packed as balanced base-2^B digits: digit k is the coefficient of
    x^(k // W) tau^(k % W) when x is packed, else of tau^k.  A given x or
    tau (packed because it is not real) is evaluated into the digit and its
    exponent folds to 0."""
    terms: dict = {}
    k = 0
    while packed:
        d = packed & ((1 << B) - 1)
        if d >> (B - 1):
            d -= 1 << B
        packed = (packed - d) >> B
        if d:
            i, j = divmod(k, W) if x_packed else (0, k)
            if x is not None:
                d, i = d * x ** i, 0
            if tau is not None:
                d, j = d * tau ** j, 0
            terms[i, j] = terms.get((i, j), 0) + d
        k += 1
    return terms


def _extract(shape: ChainShape, geometric: bool, targets, x, tau) -> list:
    """The coefficients of the u-monomials targets in the expanded integrand,
    as polynomials in (x, tau), or evaluated at a given x and/or tau."""
    # Only the unknowns are packed.  A given real x or tau is put into the
    # factors, each factor is cleared to ints over its own denominator, and
    # the product D of those denominators divides each coefficient once, at
    # decode.  The rest (unknowns, and a given non-real value, evaluated at
    # decode) go through Kronecker substitution: expand once over Z and read
    # each wanted coefficient as base-2^B digits.  With both packed, tau ->
    # T = 2^B and x -> T^W: tau occurs in n eps + n(n-1) factors, each of
    # degree 1, so with W one more than that the digit of x^i tau^j is
    # i W + j, one per monomial (x, in the first n factors only, takes the
    # wide power while the series is still short).  With one packed, it
    # becomes 2^B and W = 1; with none, the expansion runs over plain ints.
    # Every coefficient of the cleared product, truncated or not, as a
    # polynomial in the packed variables, is at most the product of the
    # cleared factors' coefficient 1-norms taken with the packed variables
    # set to 1 (a product's 1-norm is at most the product of its factors'
    # 1-norms; each geometric factor gives mmax + 1), so B = bit length of
    # that bound + 1 keeps every digit inside the balanced range
    # [-2^(B-1), 2^(B-1)).
    xr, tr = _rational(x), _rational(tau)
    x_packed, tau_packed = xr is None, tr is None
    n = shape.n
    W = n * shape.eps + n * (n - 1) + 1 if x_packed and tau_packed else 1
    B = _digit_bits(_cleared(_factors(shape, 1 if x_packed else xr,
                                      1 if tau_packed else tr, geometric))[0])
    factors, D = _cleared(_factors(shape, 1 << (B * W) if x_packed else xr,
                                   1 << B if tau_packed else tr, geometric))
    coeffs = _expand(shape, factors, targets)
    if x_packed or tau_packed:
        polys = [_decode(c, B, W, x_packed, x if x_packed else None,
                         tau if tau_packed else None) for c in coeffs]
    else:
        polys = [{(0, 0): c} for c in coeffs]
    scale = 1 if D == 1 else Fraction(1, D)
    if x is not None and tau is not None:
        return [p.get((0, 0), 0) * scale for p in polys]
    return [MultiLaurent(("x", "tau"), {e: c * scale for e, c in p.items()})
            for p in polys]


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
