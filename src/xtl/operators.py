"""Local operators on chains of two-state sites, exact and convention-pinned.

Two families of 2x2 / 4x4 matrices are used throughout:

* the exchange-normalized crossing matrix and the diagonal boundary matrix
  acting on the eigenvector family (arguments q = s*s and beta);
* the polynomial crossing matrix, its braid companion, and the symmetric
  corner matrix of the triangular lattice model (arguments q = s*s, t).

Dense state vectors on L sites are plain lists of length 2**L over exact
scalars; basis index b has the spin of site i (1-indexed, site 1 most
significant) in bit (L - i), with up = 0 and down = 1.
"""

from __future__ import annotations

from .exact import DomainError, GaussianRational, as_gaussian, bracket, brace, inv

__all__ = [
    "word_index", "index_word",
    "apply_one_site", "apply_two_site", "mat4_eq", "mat2_mul",
    "r_check_exchange", "k_boundary",
    "r_bulk", "r_check_bulk", "k_corner", "det_k_corner",
    "basis_vector", "pairing",
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


def pairing(cov_terms, vec, L: int):
    """Dual pairing of a covector (list of (word, coeff)) with a dense vector."""
    total = GaussianRational(0)
    for word, c in cov_terms:
        total = total + as_gaussian(c) * vec[word_index(word)]
    return total


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


def mat4_eq(a, b) -> bool:
    return all(a[r][c] == b[r][c] for r in range(4) for c in range(4))


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
