"""The open anisotropic spin chain and its exactly known eigenvector.

The Hamiltonian on N two-state sites is a sum of local terms: the neighbour
coupling with anisotropy -1/2 on each adjacent pair, and diagonal boundary
fields p = (1/2)(1/2 - x) on site 1 and p' = (1/2)(1/2 - 1/x) on site N,
for a nonzero parameter x in any exact ring (a `MultiLaurent` variable
included).  Basis convention: words over up/down with site 1 most
significant, up = 0, down = 1; the magnetization (half the up-minus-down
count) commutes with the Hamiltonian, so the action is evaluated inside the
fixed-magnetization sector, on the sparse down-position vectors of
`operators.SpinVector`.

The eigenvector candidate is built from the component table of the contour
kernels at tau = 1; verification asserts an exactly zero residual, never a
numeric tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .contour import ChainShape, psi_components
from .exact import UsageError, inv
from .operators import SpinVector

__all__ = ["apply_hamiltonian_sector", "eigenvalue_E", "verify_eigenpair", "EigenReport"]


def _boundary_fields(x):
    half = Fraction(1, 2)
    return half * (half - x), half * (half - inv(x))


# the neighbour coupling on (i, i+1), rows and columns in the order uu, ud, du, dd
_QUARTER = Fraction(1, 4)
_NEIGHBOUR = ((_QUARTER, 0, 0, 0),
              (0, -_QUARTER, -1, 0),
              (0, -1, -_QUARTER, 0),
              (0, 0, 0, _QUARTER))


def apply_hamiltonian_sector(N: int, x, amps: Mapping[tuple, Fraction]) -> dict:
    """Apply the Hamiltonian to a vector given by down-position amplitudes.

    The result stays in the same magnetization sector: it is the sum of the
    terms, diag(p, -p) on site 1, diag(p', -p') on site N and the neighbour
    coupling on each adjacent pair, each an operator of `act`'s form applied
    to the same vector.
    """
    if N < 1:
        raise UsageError("N must be >= 1")
    p, pp = _boundary_fields(x)
    vec = SpinVector.make(N, amps)
    terms = [(((p, 0), (0, -p)), 1), (((pp, 0), (0, -pp)), N)]
    terms += [(_NEIGHBOUR, i, i + 1) for i in range(1, N)]
    return sum((vec.apply(*op) for op in terms), SpinVector(N, {})).amps


def eigenvalue_E(N: int, x) -> Fraction:
    """The closed-form eigenvalue -(3N-1)/4 - (1-x)^2/(2x)."""
    if N < 1:
        raise UsageError("N must be >= 1")
    return Fraction(-(3 * N - 1), 4) - (1 - x) ** 2 * inv(x) / 2


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
    amplitude 1 (the empty tuple labels the all-up state of one site).
    """
    shape = ChainShape.of(N)
    table = psi_components(N, x=x, tau=Fraction(1))
    amps = {a: v for a, v in table.entries.items() if v}
    sector_ok = all(len(a) == shape.n for a in amps)
    norm_ok = amps.get(tuple(range(1, shape.n + 1)), 0) == 1
    e = eigenvalue_E(N, x)
    residual_zero = apply_hamiltonian_sector(N, x, amps) == SpinVector(N, amps).scale(e).amps
    return EigenReport(N, x, e, residual_zero, sector_ok, norm_ok)
