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

Every factor coefficient is 1, -1, x or tau, so the expansion lives in
Z[x, tau] and runs over one coefficient ring, Python int: tau becomes 2^B and
x 2^(BW), W one more than the tau-degree bound (Kronecker substitution), with
the digit width B derived from the factors.  Each wanted coefficient decodes
as balanced base-2^B digits into a MultiLaurent in (x, tau); a given x or tau
is specialised by evaluating those digits.  The counting integral expands at
x = 0, tau = 1 directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

from .exact import DomainError, MultiLaurent, Scalar, UsageError

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
    increasing tuples of down-spin positions.  Entries are MultiLaurent in
    (x, tau), decoded from one packed-int expansion, with any given x or tau
    evaluated (exponent 0); with both given they are scalars."""

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

def _mul_factor(series: dict, factor, caps) -> dict:
    """Multiply a truncated u-series by a short factor, dropping any monomial
    whose exponent exceeds its cap (it can never reach the target later, since
    every factor has nonnegative u-exponents)."""
    out: dict = {}
    for e, c in series.items():
        for de, fc in factor:
            ne = tuple(a + b for a, b in zip(e, de))
            ok = True
            for v, cap in zip(ne, caps):
                if v > cap:
                    ok = False
                    break
            if not ok:
                continue
            s = out.get(ne, 0) + c * fc
            if s:
                out[ne] = s
            else:
                out.pop(ne, None)
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


def _expand(shape: ChainShape, factors) -> dict:
    caps = _caps(shape)
    series = {(0,) * shape.n: 1}
    for f in factors:
        series = _mul_factor(series, f, caps)
    return series


def _digit_bits(factors) -> int:
    """Digit width B for the packed expansion of factors whose coefficients
    are 1, -1, x and tau (see the derivation in _extract)."""
    bound = 1
    for f in factors:
        bound *= sum(abs(c) for _, c in f)
    return bound.bit_length() + 1


def _decode(packed: int, B: int, W: int, x, tau):
    """Read packed as balanced base-2^B digits, digit k being the coefficient
    of x^(k // W) tau^(k % W); a given x or tau is evaluated into the digit
    and its exponent folds to 0.  Both given: the scalar value."""
    terms: dict = {}
    k = 0
    while packed:
        d = packed & ((1 << B) - 1)
        if d >> (B - 1):
            d -= 1 << B
        packed = (packed - d) >> B
        if d:
            i, j = divmod(k, W)
            if x is not None:
                d, i = d * x ** i, 0
            if tau is not None:
                d, j = d * tau ** j, 0
            terms[i, j] = terms.get((i, j), 0) + d
        k += 1
    if x is not None and tau is not None:
        return terms.get((0, 0), 0)
    return MultiLaurent(("x", "tau"), terms)


def _extract(shape: ChainShape, geometric: bool, targets, x, tau) -> list:
    """The coefficients of the u-monomials targets in the expanded integrand,
    as polynomials in (x, tau), or evaluated at a given x and/or tau."""
    # Kronecker substitution: expand once over Z with tau -> T = 2^B and
    # x -> T^W, then read each wanted coefficient as base-2^B digits.  tau
    # occurs in n eps + n(n-1) factors, each of degree 1, so with W one more
    # than that the digit of x^i tau^j is i W + j, one per monomial (x, in
    # the first n factors only, takes the wide power while the series is
    # still short).  Every coefficient of the product, truncated or not, is
    # at most the product of the factors' coefficient 1-norms at x = tau = 1
    # (each integrand factor gives sum |c|, each geometric factor mmax + 1),
    # so B = bit length of that bound + 1 keeps every digit inside the
    # balanced range [-2^(B-1), 2^(B-1)).
    n = shape.n
    B = _digit_bits(_factors(shape, 1, 1, geometric))
    W = n * shape.eps + n * (n - 1) + 1
    series = _expand(shape, _factors(shape, 1 << (B * W), 1 << B, geometric))
    return [_decode(series.get(t, 0), B, W, x, tau) for t in targets]


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
    coefficient extraction: the sum's integrand expanded directly at x = 0,
    tau = 1, over plain ints."""
    shape = ChainShape.of(N)
    count = _expand(shape, _factors(shape, 0, 1, True)).get(_caps(shape), 0)
    if not isinstance(count, int):
        raise DomainError(f"coefficient extraction gave a non-integer count {count!r}")
    return count
