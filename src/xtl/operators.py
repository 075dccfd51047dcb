"""Local operators on chains of two-state sites, exact and convention-pinned.

Two families of 2x2 / 4x4 matrices are used throughout:

* the exchange-normalized crossing matrix and the diagonal boundary matrix
  acting on the eigenvector family (arguments q = s*s and beta);
* the polynomial crossing matrix, its braid companion, and the symmetric
  corner matrix of the triangular lattice model (arguments q = s*s, t),
  and the two-site covector chi that the generalized sum pairs with.

Dense state vectors on L sites are plain lists of length 2**L over exact
scalars; basis index b has the spin of site i (1-indexed, site 1 most
significant) in bit (L - i), with up = 0 and down = 1.  `SpinVector` is the
one sparse form, keyed by down-spin position tuples over any exact ring; the
chain Hamiltonian and the qKZ relation checks act through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .exact import DomainError, GaussianRational, UsageError, bracket, brace, inv

__all__ = [
    "SpinVector", "word_index", "index_word",
    "apply_one_site", "apply_two_site", "mat2_mul",
    "r_check_exchange", "k_boundary",
    "r_bulk", "r_check_bulk", "k_corner", "det_k_corner", "chi_covector",
    "basis_vector",
]

UP, DOWN = "u", "d"


def word_index(word: str) -> int:
    """Basis index of a spin word like 'udd' (site 1 first)."""
    b = 0
    for ch in word:
        if ch not in (UP, DOWN):
            raise ValueError(f"bad spin character {ch!r}")
        b = (b << 1) | (ch == DOWN)
    return b


def index_word(b: int, L: int) -> str:
    return "".join(DOWN if (b >> (L - i)) & 1 else UP for i in range(1, L + 1))


def basis_vector(word: str):
    L = len(word)
    vec = [0] * (1 << L)
    vec[word_index(word)] = GaussianRational(1)
    return vec


# ---------------------------------------------------------------------------
# sparse vectors on down-spin positions
# ---------------------------------------------------------------------------

def _collect(out: dict, terms) -> dict:
    """Add (key, value) terms into out and return it; no zero value is kept."""
    for k, v in terms:
        v = out[k] + v if k in out else v
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


@dataclass(frozen=True)
class SpinVector:
    """Sparse vector on N sites indexed by strictly increasing down-spin
    position tuples; amplitudes lie in any exact ring and none is zero."""

    N: int
    amps: Mapping[tuple, object]

    @staticmethod
    def make(N: int, amps: Mapping[tuple, object]) -> "SpinVector":
        clean = {}
        for k, v in amps.items():
            k = tuple(k)
            if any(not 1 <= p <= N for p in k) or list(k) != sorted(set(k)):
                raise UsageError(f"bad down-spin positions {k} for N={N}")
            if v:
                clean[k] = v
        return SpinVector(N, clean)

    def __add__(self, other: "SpinVector") -> "SpinVector":
        if self.N != other.N:
            raise UsageError("size mismatch")
        return SpinVector(self.N, _collect(dict(self.amps), other.amps.items()))

    def scale(self, c) -> "SpinVector":
        if not c:
            return SpinVector(self.N, {})
        return SpinVector(self.N, {k: v * c for k, v in self.amps.items()})

    def apply_one_site(self, m2, i: int) -> "SpinVector":
        """Apply a 2x2 matrix (rows = out, cols = in) on site i."""
        def terms():
            for key, amp in self.amps.items():
                down = i in key
                rest = tuple(p for p in key if p != i)
                for row in (0, 1):
                    coef = m2[row][down]
                    if coef:
                        yield key if row == down else tuple(sorted(rest + (i,) * row)), coef * amp
        return SpinVector(self.N, _collect({}, terms()))

    def apply_two_site(self, m4, i: int) -> "SpinVector":
        """Apply a 4x4 matrix on adjacent sites (i, i+1); row/col order uu, ud, du, dd."""
        def terms():
            for key, amp in self.amps.items():
                col = 2 * (i in key) + (i + 1 in key)
                rest = tuple(p for p in key if p != i and p != i + 1)
                for row in range(4):
                    coef = m4[row][col]
                    if coef:
                        add = (i,) * (row >> 1) + (i + 1,) * (row & 1)
                        yield key if row == col else tuple(sorted(rest + add)), coef * amp
        return SpinVector(self.N, _collect({}, terms()))

    def insert_singlet(self, i: int) -> "SpinVector":
        """Map a vector on N-2 sites to N sites by inserting ud - du at (i, i+1)."""
        def terms():
            for key, amp in self.amps.items():
                shifted = tuple(p if p < i else p + 2 for p in key)
                yield tuple(sorted(shifted + (i + 1,))), amp
                yield tuple(sorted(shifted + (i,))), -amp
        return SpinVector(self.N + 2, _collect({}, terms()))


# ---------------------------------------------------------------------------
# dense applications
# ---------------------------------------------------------------------------

def apply_one_site(vec, m2, site: int, L: int):
    """Apply a 2x2 matrix (rows = out, cols = in) on one site of a dense vector."""
    shift = L - site
    mask = 1 << shift
    out = [0] * len(vec)
    m00, m01 = m2[0]
    m10, m11 = m2[1]
    for b, amp in enumerate(vec):
        if not amp:
            continue
        if b & mask:  # site is down
            if m01:
                out[b & ~mask] = out[b & ~mask] + m01 * amp
            if m11:
                out[b] = out[b] + m11 * amp
        else:
            if m00:
                out[b] = out[b] + m00 * amp
            if m10:
                out[b | mask] = out[b | mask] + m10 * amp
    return out


def apply_two_site(vec, m4, i: int, j: int, L: int):
    """Apply a 4x4 matrix on sites (i, j); row/col order uu, ud, du, dd."""
    si, sj = L - i, L - j
    cols = [[] for _ in range(4)]
    for row in range(4):
        for col in range(4):
            v = m4[row][col]
            if v:
                cols[col].append((row, v))
    out = [0] * len(vec)
    for b, amp in enumerate(vec):
        if not amp:
            continue
        col = (((b >> si) & 1) << 1) | ((b >> sj) & 1)
        base = b & ~((1 << si) | (1 << sj))
        for row, v in cols[col]:
            nb = base | ((row >> 1) << si) | ((row & 1) << sj)
            out[nb] = out[nb] + v * amp
    return out


def mat2_mul(a, b):
    return tuple(
        tuple(sum((a[r][k] * b[k][c] for k in range(2)), GaussianRational(0))
              for c in range(2))
        for r in range(2))


# ---------------------------------------------------------------------------
# the exchange-normalized crossing and boundary matrices
# ---------------------------------------------------------------------------

def r_check_exchange(z, s):
    """The unit-normalized crossing matrix: acts as the identity on aligned
    pairs up to the common factor, mixes ud/du; argument z is the spectral
    ratio.  Undefined when [q/z] vanishes."""
    q = s * s
    d = bracket(q * inv(z))
    if not d:
        raise DomainError("crossing matrix undefined: [q/z] = 0")
    di = inv(d)
    a = bracket(q * z) * di
    b = bracket(q) * di
    c = bracket(z) * di
    zero = a * 0
    return ((a, zero, zero, zero),
            (zero, b, c, zero),
            (zero, c, b, zero),
            (zero, zero, zero, a))


def k_boundary(z, beta):
    """Diagonal boundary matrix diag(1, [beta z]/[beta/z])."""
    den = bracket(beta * inv(z))
    if not den:
        raise DomainError("boundary matrix undefined: [beta/z] = 0")
    one = den * inv(den)
    return ((one, one * 0), (one * 0, bracket(beta * z) * inv(den)))


# ---------------------------------------------------------------------------
# the lattice-model crossing and corner matrices
# ---------------------------------------------------------------------------

def r_bulk(z, s):
    """Polynomial crossing matrix with entries [q/z], [qz], -[q^2]."""
    q = s * s
    a = bracket(q * inv(z))
    b = bracket(q * z)
    c = -bracket(q * q)
    zero = a * 0
    return ((a, zero, zero, zero),
            (zero, b, c, zero),
            (zero, c, b, zero),
            (zero, zero, zero, a))


def r_check_bulk(z, s):
    """Braid companion of r_bulk: minus the swap composed with r_bulk(-z/q)."""
    q = s * s
    m = r_bulk(-inv(q) * z, s)
    # -P m: output pair swapped, then negated
    perm = (0, 2, 1, 3)
    return tuple(tuple(-m[perm[r]][c] for c in range(4)) for r in range(4))


def k_corner(z, s, t):
    """Symmetric corner matrix [[t, c], [c, t]] with c = {sz}/{s}."""
    c = brace(s * z) * inv(brace(s))
    return ((t, c), (c, t))


def det_k_corner(z, s, t):
    k = k_corner(z, s, t)
    return k[0][0] * k[1][1] - k[0][1] * k[1][0]


def chi_covector(w, s):
    """Dense coefficients [uu, ud, du, dd] of the two-site covector chi;
    aligned spins weigh {sw}/{s}, the corner matrix's off-diagonal entry."""
    c = brace(s * w) * inv(brace(s))
    one = c * 0 + 1
    return [c, one, one, c]
