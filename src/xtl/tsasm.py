"""Totally-symmetric alternating sign matrices and their generating function.

A TSASM has odd order 2N+1, satisfies the alternating-sign conditions, and is
invariant under every symmetry of the square.  Its middle row and column are
frozen to alternating signs, and the whole matrix is recovered from the
triangular fundamental domain, which is the staircase grid of size n = N//2
(see `_staircase`): vertex (r, c), 1 <= r <= c <= 2n, is the entry
A[N+1-r][N+1+c] (1-indexed), and the staircase's bottom boundary word is
alpha_minus(n) for even N and alpha_plus(n) for odd N.

Enumeration never filters square matrices; it walks the staircase six-vertex
configurations (which are in bijection with the TSASMs of the matching order)
and converts each one.  The conversion reads off the vertex classes:

* bulk +1 <-> both horizontal edges in, -1 <-> both vertical edges in;
* corner +1 <-> in from the right and out below, -1 <-> in from below and out
  to the right; all other classes give 0.

The inverse map orients every staircase edge from partial sums of the matrix:
the vertical edge below vertex (r, c) points down iff the entries of its
matrix column from the top down to its entry sum to 1, and the horizontal
edge right of it points left iff the entries of its matrix row from the left
up to its entry sum to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, count
from typing import Iterable, Iterator, Sequence

from .exact import (DomainError, GaussianRational, MultiLaurent, UsageError, bracket,
                    brace, interpolate_along, inv)
from .sixvertex import (_automaton_sums, _bulk_class, _corner_class, alpha_minus,
                        alpha_plus, enumerate_configs, partition_enum)

__all__ = [
    "is_tsasm", "TriangularArray", "triangular_array",
    "matrix_from_array", "config_from_tsasm",
    "enumerate_tsasm", "genfun", "count_from_partition", "matrix_blocks",
]

Matrix = Sequence[Sequence[int]]


_VALUES = frozenset((-1, 0, 1))
_PARTIAL_SUMS = frozenset((0, 1))


def is_tsasm(m: Matrix) -> bool:
    """True iff m is an alternating sign matrix invariant under all square
    symmetries (odd order implied; even orders are always False).

    A line with entries in {-1, 0, 1} alternates in sign from a leading 1
    with total 1 exactly when its partial sums all lie in {0, 1} and end at
    1: from 0 only a 1 may follow, from 1 only a -1.  The transpose and the
    row mirror are reflections in axes 45 degrees apart, so together they
    generate all 8 symmetries of the square; a matrix equal to its transpose
    has its rows for columns, so the rows' partial sums cover the columns.
    """
    rows = [tuple(r) for r in m]
    order = len(rows)
    if any(len(r) != order for r in rows):
        raise UsageError("matrix must be square")
    if order % 2 == 0:
        return False
    try:
        values_ok = all(_VALUES.issuperset(r) for r in rows)
    except TypeError:  # an unhashable entry, which is no value in {-1, 0, 1}
        return False
    return (values_ok
            and list(zip(*rows)) == rows
            and all(r == r[::-1] for r in rows)
            and all(_PARTIAL_SUMS.issuperset(ps) and ps[-1] == 1
                    for ps in map(list, map(accumulate, rows))))


# ---------------------------------------------------------------------------
# the staircase correspondence
# ---------------------------------------------------------------------------

def _staircase(N: int) -> tuple:
    """(n, alpha): the size and bottom boundary word of the staircase grid of
    the TSASMs of order 2N+1.  n = N//2, and alpha is alpha_minus(n) for even
    N and alpha_plus(n) for odd N; grid vertex (r, c), 1 <= r <= c <= 2n, is
    the matrix entry A[N+1-r][N+1+c] (1-indexed), see _cells."""
    if N < 0:
        raise UsageError("N must be >= 0")
    n = N // 2
    return n, alpha_plus(n) if N % 2 else alpha_minus(n)


def _cells(N: int) -> list:
    """The staircase vertices of order 2N+1 as (r, c, i, j), (i, j) the 0-based
    matrix entry of vertex (r, c), grouped in the rows of TriangularArray."""
    n2 = 2 * (N // 2)
    return [[(r, c, N - r, N + c) for c in range(r, n2 + 1)] for r in range(n2, 0, -1)]


def _orbit(N: int, i: int, j: int) -> tuple:
    """The images of the 0-based entry (i, j) under the symmetries of the
    square of order 2N+1: {entry, transpose} x {row, mirrored row} x
    {column, mirrored column}."""
    i2, j2 = 2 * N - i, 2 * N - j
    return ((i, j), (i, j2), (i2, j), (i2, j2), (j, i), (j2, i), (j, i2), (j2, i2))


@dataclass(frozen=True)
class TriangularArray:
    """Staircase rows of a TSASM of order 2N+1: row k holds the entries of the
    vertices (r, r), ..., (r, 2n) for r = 2n - k, n = N//2."""

    N: int
    rows: tuple

    def mu(self) -> int:
        """Nonzero entries on the staircase diagonal (first entry of each row)."""
        return sum(1 for row in self.rows if row and row[0])

    def nu(self) -> int:
        """Nonzero entries strictly below the staircase diagonal."""
        return sum(1 for row in self.rows for v in row[1:] if v)


def triangular_array(m: Matrix) -> TriangularArray:
    N = (len(m) - 1) // 2
    return TriangularArray(N, tuple(tuple(m[i][j] for _, _, i, j in row)
                                    for row in _cells(N)))


@lru_cache(maxsize=None)
def _image_table(N: int) -> tuple:
    """(lengths, base, images) for order 2N+1, read off _cells and _orbit:
    the lengths of the TriangularArray rows, the row-major flat matrix with
    only its alternating medians set, and per staircase row, per entry, the
    flat indices of the entry's images under the symmetries of the square."""
    order = 2 * N + 1
    cells = _cells(N)
    base = [0] * (order * order)
    for k in range(order):
        base[k * order + N] = base[N * order + k] = (-1) ** k
    images = tuple(tuple(tuple({a * order + b for a, b in _orbit(N, i, j)})
                         for _, _, i, j in row) for row in cells)
    return tuple(map(len, cells)), tuple(base), images


def matrix_from_array(arr: TriangularArray) -> list:
    """Rebuild the full matrix from the staircase and validate it.

    The medians alternate, and each staircase entry is copied to its images
    under the symmetries of the square; the entries left over, which exist
    only for odd N and lie in the first and last rows and columns, stay 0.
    Reconstruction failure means the staircase did not come from a TSASM and
    is treated as an internal error.
    """
    N = arr.N
    lengths, base, images = _image_table(N)
    if tuple(map(len, arr.rows)) != lengths:
        raise RuntimeError("staircase has the wrong shape")
    order = 2 * N + 1
    flat = list(base)
    for row, row_images in zip(arr.rows, images):
        for v, image in zip(row, row_images):
            for p in image:
                flat[p] = v
    m = [flat[k:k + order] for k in range(0, order * order, order)]
    if not is_tsasm(m):
        raise RuntimeError("staircase does not reconstruct to a valid matrix")
    return m


# ---------------------------------------------------------------------------
# the six-vertex bijection
# ---------------------------------------------------------------------------

# the matrix entry of each vertex class, bulk and corner
_ENTRY = {"cp": 1, "cm": -1, "tp": 1, "tm": -1, "a": 0, "b": 0, "s": 0}


def config_from_tsasm(m: Matrix) -> tuple:
    """The staircase configuration of a TSASM, in the class-tuple format of
    sixvertex.enumerate_configs, via partial sums of the matrix."""
    if not is_tsasm(m):
        raise UsageError("not a totally symmetric alternating sign matrix")
    N = (len(m) - 1) // 2
    n, _ = _staircase(N)
    if n == 0:
        raise UsageError("orders below five have an empty staircase grid")

    def up(r, c):  # the vertical edge below vertex (r, c) points up
        return sum(row[N + c] for row in m[:N - r + 1]) != 1

    def left(r, c):  # the horizontal edge right of vertex (r, c) points left
        return sum(m[N - r][:N + c + 1]) == 1

    return tuple(tuple(_bulk_class(not left(r, c - 1), up(r, c), left(r, c), not up(r + 1, c))
                       for r in range(1, c)) + (_corner_class(up(c, c), left(c, c)),)
                 for c in range(1, 2 * n + 1))


# ---------------------------------------------------------------------------
# enumeration, statistics, counting
# ---------------------------------------------------------------------------

def enumerate_tsasm(N: int) -> list:
    """All TSASMs of order 2N+1, in the canonical order of their staircase
    configurations, each read off its vertex classes."""
    n, alpha = _staircase(N)
    if n == 0:  # N = 0, 1: the staircase is empty and the symmetries force the matrix
        return [matrix_from_array(TriangularArray(N, ()))]
    cells = _cells(N)
    return [matrix_from_array(TriangularArray(N, tuple(
                tuple(_ENTRY[config[c - 1][r - 1]] for r, c, _, _ in row) for row in cells)))
            for config in enumerate_configs(n, alpha)]


_GF_VARS = ("t", "tau")
# exponents of (t, tau) per vertex class: the nonzero staircase corners are
# exactly the tp/tm corners (mu), the nonzero entries below the diagonal
# exactly the cp/cm bulk vertices (nu)
_GF_EXPONENTS = {"tp": (1, 0), "tm": (1, 0), "cp": (0, 1), "cm": (0, 1),
                 "a": (0, 0), "b": (0, 0), "s": (0, 0)}


def _digit_bits(count: int) -> int:
    """Digit width of the packed generating function: the bit length of the
    TSASM count, which bounds every coefficient (see genfun)."""
    return count.bit_length()


def genfun(N: int) -> MultiLaurent:
    """The generating function sum_A t^mu(A) tau^nu(A) over TSASMs of order 2N+1.

    No matrix is built: the column automaton of the staircase bijection sums
    a weight per configuration, t for each transmitting corner and tau for
    each turning bulk vertex, aggregated per frontier.  The result has int
    coefficients; it equals the sum over enumerate_tsasm(N) of t^mu tau^nu
    read off triangular_array.

    The weights are plain ints (Kronecker substitution): a class with
    exponents (a, b) in _GF_EXPONENTS weighs 2^(B (a V + b)), so a
    configuration weighs 2^(B (mu V + nu)) and the automaton's sum holds the
    coefficient of t^mu tau^nu as its base-2^B digit at slot mu V + nu.  The
    slots are distinct because nu < V: nu is at most the number of staircase
    vertices times the largest tau exponent of the table, and V is one more.
    The digits do not overlap because every coefficient is nonnegative and
    at most their sum, the TSASM count, which one more automaton pass with
    weight 1 gives exactly; B is its bit length.  A coefficient of 2^B or
    more would carry into the next digit, and each carry lowers the digit sum
    by 2^B - 1, so decoded digits that do not sum back to the count mean the
    width was too small: an internal error, as is a negative exponent in the
    table.
    """
    _, alpha = _staircase(N)
    letters = tuple(alpha)
    if any(e < 0 for exps in _GF_EXPONENTS.values() for e in exps):
        raise RuntimeError("the generating-function exponent table has a negative exponent")
    count = _automaton_sums(letters, lambda r, c, cls: 1, 1)[alpha]
    B = _digit_bits(count)
    V = len(alpha) * (len(alpha) + 1) // 2 * max(b for _, b in _GF_EXPONENTS.values()) + 1
    weight = {cls: 1 << B * (a * V + b) for cls, (a, b) in _GF_EXPONENTS.items()}
    packed = _automaton_sums(letters, lambda r, c, cls: weight[cls], 1)[alpha]
    terms = {}
    mask = (1 << B) - 1
    slot = 0
    while packed:
        d = packed & mask
        if d:
            terms[divmod(slot, V)] = d
        packed >>= B
        slot += 1
    if sum(terms.values()) != count:
        raise RuntimeError(f"genfun({N}): packed coefficients overlap at digit width {B}")
    return MultiLaurent(_GF_VARS, terms)


def _lemma_point(n: int, alpha, s, t) -> tuple:
    """(tau, value): tau = -{q} with q = s^2, and value the homogeneous
    staircase partition function Z_n(1, ..., 1; s, t) on boundary word alpha
    times [q]^(-n(2n-1)).  For (n, alpha) = _staircase(N), the
    generating-function lemma says genfun(N) at (t, tau) equals value."""
    q = s * s
    z = partition_enum(n, alpha, [GaussianRational(1)] * (2 * n), s, t)
    return -brace(q), z * inv(bracket(q) ** (n * (2 * n - 1)))


def count_from_partition(N: int) -> int:
    """|TSASM(2N+1)| from the homogeneous staircase partition function.

    The partition function at unit site values and t = 1 equals [q]^{n(2n-1)}
    times the generating function evaluated at tau = -(q + 1/q) (see
    _lemma_point); the polynomial in tau through the samples at q = s^2 for
    s = 2, 3, ... is read at tau = 1, without its coefficients.  (tau(s) =
    tau(1/s) = tau(-s), so the common abscissa sweep would repeat points.)
    """
    n, alpha = _staircase(N)
    if n == 0:
        return 1
    one = GaussianRational(1)
    samples = (_lemma_point(n, alpha, GaussianRational(k), one) for k in count(2))
    # tau counts the nonzero entries below the staircase diagonal: at most
    # n(n'-1), with n' = N - n
    val = interpolate_along("tau", samples, 0, n * (N - n - 1), 0, one)  # an int iff integral
    if not isinstance(val, int):
        raise DomainError(f"partition-function route gave a non-integer count {val}")
    return val


def matrix_blocks(ms: Iterable[Matrix]) -> Iterator[str]:
    """The text dump in pieces, one per matrix as it comes: its rows,
    space-separated, after a blank line from the previous block; then the
    final newline."""
    sep = ""
    for m in ms:
        yield sep + "\n".join(" ".join(str(v) for v in row) for row in m)
        sep = "\n\n"
    yield "\n"
