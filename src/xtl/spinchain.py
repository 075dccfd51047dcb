"""The open anisotropic spin chain and its exactly known eigenvector.

The Hamiltonian on N two-state sites couples neighbours with anisotropy -1/2
and carries diagonal boundary fields p = (1/2)(1/2 - x), p' = (1/2)(1/2 - 1/x)
for a nonzero parameter x.  Basis convention: words over up/down with site 1
most significant, up = 0, down = 1; the magnetization (half the up-minus-down
count) commutes with the Hamiltonian, so the action is evaluated inside the
fixed-magnetization sector spanned by the down-position tuples.

The eigenvector candidate is built from the component table of the contour
kernels at tau = 1; verification asserts an exactly zero residual, never a
numeric tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .contour import ChainShape, psi_components
from .exact import DomainError, MultiLaurent, UsageError

__all__ = ["SparseHamiltonian", "build_hamiltonian", "apply_hamiltonian_sector",
           "eigenvalue_E", "verify_eigenpair", "EigenReport"]


def _as_x(x):
    if isinstance(x, MultiLaurent):
        return x
    x = Fraction(x)
    if x == 0:
        raise DomainError("x must be nonzero")
    return x


def _boundary_fields(x):
    half = Fraction(1, 2)
    if isinstance(x, MultiLaurent):
        xinv = x.inverse()
        return half * (half - x), half * (half - xinv)
    return half * (half - x), half * (half - 1 / x)


@dataclass(frozen=True)
class SparseHamiltonian:
    """Sparse symmetric matrix: columns[b] lists (row index, exact entry)."""

    N: int
    x: object
    columns: tuple

    def dense(self) -> list:
        dim = 1 << self.N
        out = [[0] * dim for _ in range(dim)]
        for c, col in enumerate(self.columns):
            for r, v in col:
                out[r][c] = v
        return out


def build_hamiltonian(N: int, x) -> SparseHamiltonian:
    """The full 2^N-dimensional Hamiltonian; x may be exact or a variable.

    Only sensible for moderate N; eigenvector verification uses the
    sector-restricted application instead of this matrix.
    """
    if N < 1:
        raise UsageError("N must be >= 1")
    x = _as_x(x)
    p, pp = _boundary_fields(x)
    quarter = Fraction(1, 4)
    dim = 1 << N
    cols = []
    for b in range(dim):
        spins = [1 - 2 * ((b >> (N - i)) & 1) for i in range(1, N + 1)]  # +1 up
        col = {}
        diag = 0
        for i in range(N - 1):
            diag = diag + quarter * (spins[i] * spins[i + 1])
            if spins[i] != spins[i + 1]:
                flipped = b ^ (1 << (N - 1 - i)) ^ (1 << (N - 2 - i))
                col[flipped] = col.get(flipped, 0) - 1
        diag = diag + p * spins[0] + pp * spins[N - 1]
        col[b] = col.get(b, 0) + diag
        cols.append(tuple(sorted((r, v) for r, v in col.items() if v != 0)))
    return SparseHamiltonian(N, x, tuple(cols))


def apply_hamiltonian_sector(N: int, x, amps: Mapping[tuple, Fraction]) -> dict:
    """Apply the Hamiltonian to a vector given by down-position amplitudes.

    The result stays in the same magnetization sector.  The neighbour coupling
    contributes -1 on each adjacent up-down flip and (1/4) s_i s_{i+1} on the
    diagonal; the boundary fields weight the first and last spin.
    """
    x = _as_x(x)
    p, pp = _boundary_fields(x)
    quarter = Fraction(1, 4)
    out: dict = {}

    def add(key, val):
        cur = out.get(key, 0) + val
        if cur == 0:
            out.pop(key, None)
        else:
            out[key] = cur

    for key, amp in amps.items():
        if amp == 0:
            continue
        downs = set(key)
        diag = 0
        for i in range(1, N):
            si = -1 if i in downs else 1
            sj = -1 if i + 1 in downs else 1
            if si != sj:
                flipped = tuple(sorted(downs ^ {i, i + 1}))
                add(flipped, -amp)
            diag = diag + quarter * si * sj
        diag = diag + p * (-1 if 1 in downs else 1) + pp * (-1 if N in downs else 1)
        add(key, diag * amp)
    return out


def eigenvalue_E(N: int, x) -> Fraction:
    """The closed-form eigenvalue -(3N-1)/4 - (1-x)^2/(2x)."""
    if N < 1:
        raise UsageError("N must be >= 1")
    if isinstance(x, MultiLaurent):
        return (MultiLaurent.const(Fraction(-(3 * N - 1), 4))
                - (1 - x) ** 2 * x.inverse() * Fraction(1, 2))
    x = _as_x(x)
    return Fraction(-(3 * N - 1), 4) - (1 - x) ** 2 / (2 * x)


@dataclass(frozen=True)
class EigenReport:
    N: int
    x: Fraction
    eigenvalue: Fraction
    residual_zero: bool
    magnetization_ok: bool
    normalization_ok: bool

    @property
    def passed(self) -> bool:
        return self.residual_zero and self.magnetization_ok and self.normalization_ok

    def to_json(self) -> dict:
        return {"N": self.N, "x": str(self.x), "eigenvalue": str(self.eigenvalue),
                "residual_zero": self.residual_zero,
                "magnetization_ok": self.magnetization_ok,
                "normalization_ok": self.normalization_ok}


def verify_eigenpair(N: int, x) -> EigenReport:
    """Exact verification that the component table at tau = 1 is an eigenvector.

    Asserts H v = E v with identically zero residual, that v lies in the
    magnetization sector eps/2, and that the lowest position tuple has
    amplitude 1.
    """
    x = Fraction(x)
    if x == 0:
        raise DomainError("x must be nonzero")
    shape = ChainShape.of(N)
    table = psi_components(N, x=x, tau=Fraction(1))
    amps = {a: Fraction(v) if isinstance(v, int) else v
            for a, v in table.entries.items() if v != 0}
    if N == 1:
        amps = {(): Fraction(1)}
    # the empty tuple labels the all-up state for chains of one site
    keys = {a for a in amps}
    sector_ok = all(len(a) == shape.n for a in keys)
    first = tuple(range(1, shape.n + 1))
    norm_ok = amps.get(first, 0) == 1
    e = eigenvalue_E(N, x)
    if N == 1:
        hv = {(): (Fraction(1, 2) - x / 2 - 1 / (2 * x)) * amps[()]}
    else:
        hv = apply_hamiltonian_sector(N, x, amps)
    residual_zero = True
    for key in set(hv) | set(amps):
        if hv.get(key, 0) != e * amps.get(key, 0):
            residual_zero = False
            break
    return EigenReport(N, x, e, residual_zero, sector_ok, norm_ok)
