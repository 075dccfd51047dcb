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
from .operators import SpinVector, _collect

__all__ = ["apply_hamiltonian_sector", "eigenvalue_E", "verify_eigenpair", "EigenReport"]


def _boundary_fields(x):
    half = Fraction(1, 2)
    return half * (half - x), half * (half - inv(x))


def apply_hamiltonian_sector(N: int, x, amps: Mapping[tuple, Fraction]) -> dict:
    """Apply the Hamiltonian to a vector given by down-position amplitudes.

    The result stays in the same magnetization sector.  The Hamiltonian is
    diag(p, -p) on site 1, diag(p', -p') on site N and, on each adjacent
    pair, 1/4 when the spins align, -1/4 when they do not, and a hop of
    strength -1 that swaps an anti-aligned pair.  So each amplitude is
    multiplied once by its diagonal entry, which depends only on the spins
    at sites 1 and N and on the number d of anti-aligned pairs (the pairs
    give (N - 1 - 2d)/4 together), and is subtracted at each configuration
    one hop away.
    """
    if N < 1:
        raise UsageError("N must be >= 1")
    p, pp = _boundary_fields(x)
    vec = SpinVector.make(N, amps)
    diagonal = {}  # (site 1 down, site N down, d) -> the diagonal entry

    def terms():
        for key, amp in vec.amps.items():
            # hops[j]: the up neighbours the down spin at key[j] can move to;
            # every anti-aligned pair is one such move
            hops = [[q for q in (a - 1, a + 1) if 1 <= q <= N and q not in key]
                    for a in key]
            cls = (1 in key, N in key, sum(map(len, hops)))
            if cls not in diagonal:
                diagonal[cls] = ((-p if cls[0] else p) + (-pp if cls[1] else pp)
                                 + Fraction(N - 1 - 2 * cls[2], 4))
            yield key, diagonal[cls] * amp
            for j, qs in enumerate(hops):
                for q in qs:
                    yield key[:j] + (q,) + key[j + 1:], -amp
    return _collect({}, terms())


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
