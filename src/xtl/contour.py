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

Coefficients are exact: MultiLaurent in (x, tau) by default, or plain scalars
when numeric values for x and tau are supplied.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
    increasing tuples of down-spin positions."""

    shape: ChainShape
    entries: Mapping[tuple, MultiLaurent | Scalar]

    def to_json(self) -> dict:
        items = []
        for a in sorted(self.entries):
            p = self.entries[a]
            if not isinstance(p, MultiLaurent):
                p = MultiLaurent.const(p, ("x", "tau"))
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


def _integrand_factors(shape: ChainShape, x, tau):
    """The polynomial factors shared by the component and sum integrands."""
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
    return fs


def _expand(shape: ChainShape, x, tau, caps, geometric: bool) -> dict:
    n = shape.n
    series = {(0,) * n: 1}
    for f in _integrand_factors(shape, x, tau):
        series = _mul_factor(series, f, caps)
    if geometric:
        for k in range(n):
            mmax = min(caps[: k + 1])
            step = tuple(1 if i <= k else 0 for i in range(n))
            factor = [(tuple(m * s for s in step), 1) for m in range(mmax + 1)]
            series = _mul_factor(series, factor, caps)
    return series


def _symbols(x, tau):
    xv = MultiLaurent(("x", "tau"), {(1, 0): 1}) if x is None else x
    tv = MultiLaurent(("x", "tau"), {(0, 1): 1}) if tau is None else tau
    return xv, tv


@lru_cache(maxsize=32)
def _psi_series_symbolic(N: int):
    shape = ChainShape.of(N)
    caps = tuple(shape.nprime + k for k in range(shape.n))
    xv, tv = _symbols(None, None)
    return _expand(shape, xv, tv, caps, False)


def psi_components(N: int, x=None, tau=None) -> ComponentTable:
    """All C(N, n) eigenvector components as exact polynomials in (x, tau).

    The component at positions a_1 < ... < a_n is the coefficient of
    prod_k u_k^(N - a_{n+1-k}) in the expanded integrand.  Passing numeric
    x and/or tau yields numeric entries instead of polynomials.
    """
    shape = ChainShape.of(N)
    n = shape.n
    if n == 0:
        one = MultiLaurent.const(1, ("x", "tau")) if x is None and tau is None else 1
        return ComponentTable(shape, {(): one})
    if x is None and tau is None:
        series = _psi_series_symbolic(N)
    else:
        xv, tv = _symbols(x, tau)
        caps = tuple(shape.nprime + k for k in range(n))
        series = _expand(shape, xv, tv, caps, False)
    symbolic = x is None and tau is None
    zero_like = MultiLaurent.const(0, ("x", "tau")) if symbolic else 0
    entries = {}
    for a in combinations(range(1, N + 1), n):
        target = tuple(N - a[n - k] for k in range(1, n + 1))
        v = series.get(target, zero_like)
        if symbolic and not isinstance(v, MultiLaurent):
            v = MultiLaurent.const(v, ("x", "tau"))
        entries[a] = v
    return ComponentTable(shape, entries)


def sum_components(N: int, x=None, tau=None):
    """The generalized component sum as an exact polynomial in (x, tau).

    Agrees with the sum of all psi_components entries; the conventions for
    N = 0, 1 give the constant 1.
    """
    shape = ChainShape.of(N)
    n = shape.n
    xv, tv = _symbols(x, tau)
    one = MultiLaurent.const(1, ("x", "tau")) if x is None and tau is None else 1
    if n == 0:
        return one
    caps = tuple(shape.nprime + k for k in range(n))
    series = _expand(shape, xv, tv, caps, True)
    v = series.get(caps, one * 0)
    if x is None and tau is None and not isinstance(v, MultiLaurent):
        v = MultiLaurent.const(v, ("x", "tau"))
    return v


def tsasm_count_integral(N: int) -> int:
    """The number of totally-symmetric ASMs of order 2N+1 by iterated
    coefficient extraction: the x = 0, tau = 1 specialization of the sum."""
    count = sum_components(N, x=0, tau=1)
    if not isinstance(count, int):
        raise DomainError(f"coefficient extraction gave a non-integer count {count!r}")
    return count
