"""Totally-symmetric alternating sign matrices and their generating function.

A TSASM has odd order 2N+1, satisfies the alternating-sign conditions, and is
invariant under every symmetry of the square.  Its middle row and column are
frozen to alternating signs, and the whole matrix is recovered from the
triangular fundamental domain: the staircase of entries A[i][j] (1-indexed)
with 1+eps <= i <= N and 2(N+1)-i <= j <= 2N+1-eps, where eps = N mod 2.

Enumeration never filters square matrices; it walks the staircase six-vertex
configurations (which are in bijection with the TSASMs of the matching order)
and converts each one.  The conversion reads off the vertex classes:

* bulk +1 <-> both horizontal edges in, -1 <-> both vertical edges in;
* corner +1 <-> in from the right and out below, -1 <-> in from below and out
  to the right; all other classes give 0.

The inverse map orients every staircase edge from partial sums of the matrix:
a vertical edge of grid column c below grid row r points down iff the first
N+1-r entries of matrix column N+1+c sum to 1, and a horizontal edge of grid
row r right of grid column c points left iff the first N+1+c entries of
matrix row N+1-r sum to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Iterable, Sequence

from .exact import (DomainError, GaussianRational, MultiLaurent, UsageError, bracket,
                    interpolate_along)
from .sixvertex import (SixVertexConfig, _automaton_sums, alpha_minus, alpha_plus,
                        enumerate_configs)

__all__ = [
    "is_tsasm", "TriangularArray", "triangular_array",
    "matrix_from_array", "from_sixvertex", "config_from_tsasm",
    "enumerate_tsasm", "genfun", "count_from_partition", "matrices_to_text",
]

Matrix = Sequence[Sequence[int]]


def _row_ok(row: Iterable[int]) -> bool:
    nz = [v for v in row if v]
    if sum(nz) != 1:
        return False
    return all(a == -b for a, b in zip(nz, nz[1:])) and (not nz or nz[0] == 1)


def is_tsasm(m: Matrix) -> bool:
    """True iff m is an alternating sign matrix invariant under all square
    symmetries (odd order implied; even orders are always False)."""
    rows = [list(r) for r in m]
    order = len(rows)
    if any(len(r) != order for r in rows):
        raise UsageError("matrix must be square")
    if order == 0 or order % 2 == 0:
        return False
    if any(v not in (-1, 0, 1) for r in rows for v in r):
        return False
    for r in rows:
        if not _row_ok(r):
            return False
    for c in range(order):
        if not _row_ok([rows[r][c] for r in range(order)]):
            return False
    for i in range(order):
        for j in range(order):
            if rows[i][j] != rows[j][i] or rows[i][j] != rows[i][order - 1 - j]:
                return False
    return True


# ---------------------------------------------------------------------------
# the triangular fundamental domain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TriangularArray:
    """Staircase rows of a TSASM: row index i runs 1+eps..N, row i holds the
    entries A[i][j] for j = 2(N+1)-i .. 2N+1-eps."""

    N: int
    rows: tuple

    @property
    def eps(self) -> int:
        return self.N % 2

    def mu(self) -> int:
        """Nonzero entries on the staircase diagonal (first entry of each row)."""
        return sum(1 for row in self.rows if row and row[0])

    def nu(self) -> int:
        """Nonzero entries strictly below the staircase diagonal."""
        return sum(1 for row in self.rows for v in row[1:] if v)


def triangular_array(m: Matrix) -> TriangularArray:
    order = len(m)
    N = (order - 1) // 2
    eps = N % 2
    rows = []
    for i in range(1 + eps, N + 1):
        rows.append(tuple(m[i - 1][j - 1]
                          for j in range(2 * (N + 1) - i, 2 * N + 2 - eps)))
    return TriangularArray(N, tuple(rows))


def matrix_from_array(arr: TriangularArray) -> list:
    """Rebuild the full matrix from the staircase and validate it.

    Reconstruction failure means the staircase did not come from a TSASM and
    is treated as an internal error.
    """
    N, eps = arr.N, arr.eps
    order = 2 * N + 1
    if len(arr.rows) != N - eps or any(
            len(row) != (1 + eps + idx) - eps for idx, row in enumerate(arr.rows)):
        raise RuntimeError("staircase has the wrong shape")
    m = [[0] * order for _ in range(order)]

    def setval(i, j, v):
        m[i - 1][j - 1] = v

    def getval(i, j):
        return m[i - 1][j - 1]

    for idx, row in enumerate(arr.rows):
        i = 1 + eps + idx
        for off, v in enumerate(row):
            setval(i, 2 * (N + 1) - i + off, v)
    # reflect across the antidiagonal of the upper-right N x N block
    for i in range(1, N + 1):
        for j in range(N + 2, 2 * N + 2):
            c = j - (N + 1)
            if i + c < N + 1:
                setval(i, j, getval(N + 1 - c, N + 1 + (N + 1 - i)))
    # medians
    for i in range(1, order + 1):
        setval(i, N + 1, (-1) ** (i + 1))
        setval(N + 1, i, (-1) ** (i + 1))
    # vertical-median reflection fills the left half of the top rows
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            setval(i, j, getval(i, 2 * (N + 1) - j))
    # horizontal-median reflection fills the bottom rows
    for i in range(N + 2, order + 1):
        for j in range(1, order + 1):
            setval(i, j, getval(2 * (N + 1) - i, j))
    if not is_tsasm(m):
        raise RuntimeError("staircase does not reconstruct to a valid matrix")
    return m


# ---------------------------------------------------------------------------
# the six-vertex bijection
# ---------------------------------------------------------------------------

_BULK_VALUE = {"cp": 1, "cm": -1, "a": 0, "b": 0}
_CORNER_VALUE = {"tp": 1, "tm": -1, "s": 0}


def from_sixvertex(config: SixVertexConfig) -> list:
    """The TSASM corresponding to a staircase configuration with an alternating
    boundary word; raises UsageError for any other boundary word."""
    n = config.n
    if config.alpha == alpha_minus(n):
        N = 2 * n
    elif config.alpha == alpha_plus(n):
        N = 2 * n + 1
    else:
        raise UsageError("boundary word must be alternating")
    eps = N % 2
    rows = []
    for i in range(1 + eps, N + 1):
        r = N + 1 - i
        row = []
        for j in range(2 * (N + 1) - i, 2 * N + 2 - eps):
            c = j - (N + 1)
            if r == c:
                row.append(_CORNER_VALUE[config.corner_class(r)])
            else:
                row.append(_BULK_VALUE[config.bulk_class(r, c)])
        rows.append(tuple(row))
    return matrix_from_array(TriangularArray(N, tuple(rows)))


def config_from_tsasm(m: Matrix) -> SixVertexConfig:
    """Inverse of from_sixvertex, via partial sums of the matrix."""
    if not is_tsasm(m):
        raise UsageError("not a totally symmetric alternating sign matrix")
    order = len(m)
    N = (order - 1) // 2
    n = N // 2
    if n == 0:
        raise UsageError("orders below five have an empty staircase grid")
    alpha = alpha_minus(n) if N % 2 == 0 else alpha_plus(n)
    n2 = 2 * n
    colsum = [[0] * (order + 1) for _ in range(order)]  # colsum[j][i] = sum_{k<=i} m[k][j]
    for j in range(order):
        for i in range(1, order + 1):
            colsum[j][i] = colsum[j][i - 1] + m[i - 1][j]
    rowsum = [[0] * (order + 1) for _ in range(order)]
    for i in range(order):
        for j in range(1, order + 1):
            rowsum[i][j] = rowsum[i][j - 1] + m[i][j - 1]
    vedge = {}
    hedge = {}
    for c in range(1, n2 + 1):
        j = N + 1 + c
        for r in range(1, c + 1):
            vedge[(r, c)] = "D" if colsum[j - 1][N + 1 - r] == 1 else "U"
    for r in range(1, n2 + 1):
        i = N + 1 - r
        for c in range(r, n2 + 1):
            j = N + 1 + c
            hedge[(r, c)] = "L" if rowsum[i - 1][j] == 1 else "R"
    return SixVertexConfig(n, alpha, vedge, hedge)


# ---------------------------------------------------------------------------
# enumeration, statistics, counting
# ---------------------------------------------------------------------------

def enumerate_tsasm(N: int) -> list:
    """All TSASMs of order 2N+1, through the staircase bijection."""
    if N < 0:
        raise UsageError("N must be >= 0")
    if N == 0:
        return [[[1]]]
    n = N // 2
    if n == 0:  # N = 1: the staircase is empty and the symmetries force the matrix
        return [matrix_from_array(TriangularArray(1, ()))]
    alpha = alpha_minus(n) if N % 2 == 0 else alpha_plus(n)
    return [from_sixvertex(c) for c in enumerate_configs(n, alpha)]


_GF_VARS = ("t", "tau")
# exponents of (t, tau) per vertex class: the nonzero staircase corners are
# exactly the tp/tm corners (mu), the nonzero entries below the diagonal
# exactly the cp/cm bulk vertices (nu)
_GF_EXPONENTS = {"tp": (1, 0), "tm": (1, 0), "cp": (0, 1), "cm": (0, 1),
                 "a": (0, 0), "b": (0, 0), "s": (0, 0)}


def genfun(N: int) -> MultiLaurent:
    """The generating function sum_A t^mu(A) tau^nu(A) over TSASMs of order 2N+1.

    No matrix is built: the column automaton of the staircase bijection sums
    a monomial weight per configuration, t for each transmitting corner and
    tau for each turning bulk vertex, aggregated per frontier.  The result
    has int coefficients; it equals the sum over enumerate_tsasm(N) of
    t^mu tau^nu read off triangular_array.
    """
    if N < 0:
        raise UsageError("N must be >= 0")
    n = N // 2
    if n == 0:  # N = 0, 1: one matrix with an empty staircase
        return MultiLaurent.const(1, _GF_VARS)
    alpha = alpha_minus(n) if N % 2 == 0 else alpha_plus(n)
    mono = {cls: MultiLaurent.monomial(_GF_VARS, e) for cls, e in _GF_EXPONENTS.items()}
    sums = _automaton_sums(tuple(alpha), lambda r, c, cls: mono[cls],
                           MultiLaurent.const(1, _GF_VARS))
    return sums[alpha]


def count_from_partition(N: int) -> int:
    """|TSASM(2N+1)| from the homogeneous staircase partition function.

    The partition function at unit site values and t = 1 equals [q]^{n(2n-1)}
    times the generating function evaluated at tau = -(q + 1/q); sampling
    q = s^2 for s = 2, 3, ... and interpolating the polynomial in tau recovers
    the value at tau = 1.  (tau(s) = tau(1/s) = tau(-s), so the common
    abscissa sweep would repeat points.)
    """
    from .sixvertex import partition_enum

    if N < 0:
        raise UsageError("N must be >= 0")
    n = N // 2
    if n == 0:
        return 1
    alpha = alpha_minus(n) if N % 2 == 0 else alpha_plus(n)
    ones = [GaussianRational(1)] * (2 * n)
    one = GaussianRational(1)

    def samples():
        for k in count(2):
            sv = GaussianRational(k)
            q = sv * sv
            z = partition_enum(n, alpha, ones, sv, one)
            yield -(q + q.inverse()), z * (bracket(q) ** (n * (2 * n - 1))).inverse()

    # tau counts the nonzero entries below the staircase diagonal: at most
    # n(n'-1), with n' = N - n
    poly = interpolate_along("tau", samples(), 0, n * (N - n - 1), 0)
    val = poly.eval_at({"tau": one})  # an int exactly when the value is integral
    if not isinstance(val, int):
        raise DomainError(f"partition-function route gave a non-integer count {val}")
    return val


def matrices_to_text(ms: Iterable[Matrix]) -> str:
    """Text dump: one block per matrix, rows space-separated, blank line between."""
    blocks = []
    for m in ms:
        blocks.append("\n".join(" ".join(str(v) for v in row) for row in m))
    return "\n\n".join(blocks) + "\n"
