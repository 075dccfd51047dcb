"""Local operators on chains of two-state sites, exact and convention-pinned.

Two families of 2x2 / 4x4 matrices are used throughout:

* the exchange-normalized crossing matrix and the diagonal boundary matrix
  acting on the eigenvector family (arguments q = s*s and beta);
* the polynomial crossing matrix, its braid companion, and the symmetric
  corner matrix of the triangular lattice model (arguments q = s*s, t),
  and the two-site covector chi that the generalized sum pairs with.

Dense state vectors on L sites are plain lists of length 2**L over exact
scalars; basis index b has the spin of site i (1-indexed, site 1 most
significant) in bit (L - i), with up = 0 and down = 1; `act_ints` applies
local matrices to them in Gaussian integers over one tracked denominator,
and `act` reduces its image.  An unreduced `Image` is compared with another
by cross-multiplication and reduced only where its values are read.
`SpinVector` is the one sparse form, keyed by down-spin position tuples over
any exact ring; its `apply` takes one operator of `act`'s list, so the qKZ
relation checks act in the same convention as the dense stacks.  Both
refuse an operator whose sites are out of range or repeated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple

from .exact import (DomainError, GaussianRational, MultiLaurent, UsageError, bracket,
                    brace, from_gaussian_ints, gaussian_ints, inv)

__all__ = [
    "SpinVector", "word_index", "index_word",
    "Image", "image", "same_images", "reduced_images",
    "act", "act_ints", "act_covector", "apply_one_site", "apply_two_site",
    "r_check_exchange", "k_boundary",
    "r_bulk", "r_check_bulk", "k_corner", "chi_covector",
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

def _exact(v):
    """v itself, or a UsageError when it is neither an exact scalar nor a
    MultiLaurent: SpinVector amplitudes and the corner matrix's t can be
    returned before any arithmetic that would refuse them reads them."""
    if not isinstance(v, (int, Fraction, GaussianRational, MultiLaurent)):
        raise UsageError(f"not an exact scalar: {v!r}")
    return v


def _collect(out: dict, terms) -> dict:
    """Add (key, value) terms into out and return it; no zero value is kept."""
    for k, v in terms:
        v = out[k] + v if k in out else v
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def _check_sites(m, sites, L: int) -> None:
    """Refuse an operator unless its sites are distinct sites of 1..L, one
    for a 2x2 matrix and two for a 4x4."""
    if (len(m) != {1: 2, 2: 4}.get(len(sites)) or len(set(sites)) < len(sites)
            or not all(p in range(1, L + 1) for p in sites)):
        raise UsageError(f"bad sites {tuple(sites)} for a {len(m)}x{len(m)} matrix on N={L}")


@dataclass(frozen=True)
class SpinVector:
    """Sparse vector on N sites indexed by strictly increasing down-spin
    position tuples; amplitudes are exact scalars or MultiLaurent (make
    refuses anything else) and none is zero."""

    N: int
    amps: Mapping[tuple, object]

    @staticmethod
    def make(N: int, amps: Mapping[tuple, object]) -> "SpinVector":
        clean = {}
        for k, v in amps.items():
            k = tuple(k)
            if any(not 1 <= p <= N for p in k) or list(k) != sorted(set(k)):
                raise UsageError(f"bad down-spin positions {k} for N={N}")
            if _exact(v):
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

    def apply(self, m, *sites) -> "SpinVector":
        """Apply one operator as `act` does: a 2x2 matrix on site i or a 4x4
        matrix on the ordered pair (i, j); rows are out, cols in, in the order
        u, d and uu, ud, du, dd for (site i, site j)."""
        _check_sites(m, sites, self.N)
        k = len(sites)
        # downs[x]: the sites that row or column x puts down, site i first
        downs = [tuple(p for b, p in enumerate(sites) if x >> (k - 1 - b) & 1)
                 for x in range(len(m))]
        cols = [[(r, downs[r], row[c]) for r, row in enumerate(m) if row[c]]
                for c in range(len(m))]

        def terms():
            for key, amp in self.amps.items():
                col = 0
                for p in sites:
                    col += col + (p in key)
                rest = tuple(p for p in key if p not in sites)
                for row, add, coef in cols[col]:
                    yield key if row == col else tuple(sorted(rest + add)), coef * amp
        return SpinVector(self.N, _collect({}, terms()))

    def insert_singlet(self, i: int) -> "SpinVector":
        """Map a vector on N-2 sites to N sites by inserting ud - du at (i, i+1)."""
        if i not in range(1, self.N + 2):
            raise UsageError(f"bad singlet site {i} for N={self.N + 2}")

        def terms():
            for key, amp in self.amps.items():
                shifted = tuple(p if p < i else p + 2 for p in key)
                yield tuple(sorted(shifted + (i + 1,))), amp
                yield tuple(sorted(shifted + (i,))), -amp
        return SpinVector(self.N + 2, _collect({}, terms()))


# ---------------------------------------------------------------------------
# dense applications, in Gaussian integers over one tracked denominator
# ---------------------------------------------------------------------------

class Image(NamedTuple):
    """Dense amplitudes as Gaussian integers over one denominator d > 0,
    unreduced: amplitude k is (re[k] + im[k]*i)/d."""
    re: list
    im: list
    d: int

    def amplitude(self, k: int) -> GaussianRational:
        """Amplitude k, reduced."""
        return from_gaussian_ints([self.re[k]], [self.im[k]], self.d)[0]

    def paired(self, cov) -> GaussianRational:
        """The sum over k of cov[k] times amplitude k, for a covector cov of
        exact scalars: cov is cleared to Gaussian integers, and only the sum
        is reduced."""
        cre, cim, cd = gaussian_ints(cov)
        x = y = 0
        for a, b, u, v in zip(cre, cim, self.re, self.im):
            if a or b:
                x += a * u - b * v
                y += a * v + b * u
        return from_gaussian_ints([x], [y], cd * self.d)[0]


def image(values) -> Image:
    """Exact scalars as an Image over the lcm of their denominators."""
    return Image(*gaussian_ints(values))


def same_images(x, y) -> bool:
    """Whether two Images, or two lists or tuples of them, hold the same
    amplitudes: over one denominator the integers are compared as they
    stand, over two by cross-multiplication."""
    if not isinstance(x, Image):
        return len(x) == len(y) and all(map(same_images, x, y))
    if x.d == y.d:
        return x.re == y.re and x.im == y.im
    return (len(x.re) == len(y.re)
            and all(a * y.d == b * x.d for a, b in zip(x.re, y.re))
            and all(a * y.d == b * x.d for a, b in zip(x.im, y.im)))


def reduced_images(x):
    """Images as GaussianRational lists, in the list or tuple shape x has."""
    if isinstance(x, Image):
        return from_gaussian_ints(*x)
    return type(x)(map(reduced_images, x))


def act(vec, ops, L: int) -> list:
    """Apply operators to a dense vector on L sites, the first listed first:
    (2x2, site) acts on one site and (4x4, i, j) on the pair (i, j); rows are
    out, cols in, in the order u, d and uu, ud, du, dd.  A list of k * 2**L
    amplitudes holds k vectors end to end, and each is acted on alone.

    Entries and amplitudes are exact Q(i) scalars; act_ints does the
    arithmetic, and every amplitude of its image, zeros included, goes back
    to GaussianRational with one gcd.
    """
    return from_gaussian_ints(*act_ints(vec, ops, L))


def act_ints(vec, ops, L: int) -> Image:
    """act without the final reduction: the image as an Image (re, im, d),
    for a caller that compares images or reads only a few amplitudes.

    The vector is cleared to Gaussian integers over one denominator d, and
    each matrix once to Gaussian integers over the lcm of its entries'
    denominators; each step multiplies d by that lcm and does only integer
    multiply-adds, so two images through the same multiset of matrices from
    one vector share d.  A vector whose length is not a positive multiple of
    2**L, or an operator on bad sites, is refused before any arithmetic.
    """
    if not vec or len(vec) % (1 << L):
        raise UsageError(f"a vector of {len(vec)} amplitudes is not whole vectors on {L} sites")
    for m, *sites in ops:
        _check_sites(m, sites, L)
    re, im, d = gaussian_ints(vec)
    for m, *sites in ops:
        cols, md = _columns(m)
        d *= md
        if len(sites) == 1:
            re, im = apply_one_site(re, im, cols, sites[0], L)
        else:
            re, im = apply_two_site(re, im, cols, *sites, L)
    return Image(re, im, d)


def act_covector(cov, ops, L: int) -> Image:
    """Apply operators to a covector from the right, cov * O1 * O2 * ...,
    unreduced; cov is the dense coefficient list and ops are as for act.

    Right-multiplication by O is left-multiplication by the transpose of O,
    so each matrix is transposed before act_ints applies it; the crossing
    matrices happen to be symmetric, but an identity checked through here
    must not rest on that (a perturbed matrix need not be).
    """
    return act_ints(cov, [(tuple(zip(*m)), *sites) for m, *sites in ops], L)


def _columns(m):
    """A square matrix of exact scalars as (cols, d): cols[c] lists (row, re,
    im) for each nonzero entry of column c, Gaussian integers over d, the lcm
    of the entries' denominators."""
    k = len(m)
    re, im, d = gaussian_ints([v for row in m for v in row])
    cols = [[] for _ in range(k)]
    for x, a in enumerate(re):
        b = im[x]
        if a or b:
            cols[x % k].append((x // k, a, b))
    return cols, d


def apply_one_site(re, im, cols, site: int, L: int):
    """Apply a 2x2 matrix, given as the columns of `_columns`, on one site of
    a dense vector given by its integer real and imaginary parts.  Returns the
    real and imaginary parts of the image."""
    return _apply(re, im, cols, (0, 1 << (L - site)))


def apply_two_site(re, im, cols, i: int, j: int, L: int):
    """As apply_one_site, for a 4x4 matrix on sites (i, j)."""
    bi, bj = 1 << (L - i), 1 << (L - j)
    return _apply(re, im, cols, (0, bj, bi, bi | bj))


def _apply(re, im, cols, offs):
    """The integer kernel: offs[x] holds the bits of the basis index that
    row or column x of the matrix sets, so offs[-1] masks the sites."""
    mask = offs[-1]
    terms = {offs[c]: [(offs[r], a, b) for r, a, b in col] for c, col in enumerate(cols)}
    n = len(re)
    ore, oim = [0] * n, [0] * n
    for src, x in enumerate(re):
        y = im[src]
        if not (x or y):
            continue
        base = src & ~mask
        for off, a, b in terms[src & mask]:
            t = base | off
            if b:
                ore[t] += a * x - b * y
                oim[t] += a * y + b * x
            elif y:
                ore[t] += a * x
                oim[t] += a * y
            else:
                ore[t] += a * x
    return ore, oim


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
    return ((a, 0, 0, 0),
            (0, b, c, 0),
            (0, c, b, 0),
            (0, 0, 0, a))


def k_boundary(z, beta):
    """Diagonal boundary matrix diag(1, [beta z]/[beta/z])."""
    den = bracket(beta * inv(z))
    if not den:
        raise DomainError("boundary matrix undefined: [beta/z] = 0")
    return ((1, 0), (0, bracket(beta * z) * inv(den)))


# ---------------------------------------------------------------------------
# the lattice-model crossing and corner matrices
# ---------------------------------------------------------------------------

def r_bulk(z, s):
    """Polynomial crossing matrix with entries [q/z], [qz], -[q^2]."""
    q = s * s
    a = bracket(q * inv(z))
    b = bracket(q * z)
    c = -bracket(q * q)
    return ((a, 0, 0, 0),
            (0, b, c, 0),
            (0, c, b, 0),
            (0, 0, 0, a))


def r_check_bulk(z, s):
    """Braid companion of r_bulk: minus the swap composed with r_bulk(-z/q)."""
    q = s * s
    m = r_bulk(-inv(q) * z, s)
    # -P m: output pair swapped, then negated
    perm = (0, 2, 1, 3)
    return tuple(tuple(-m[perm[r]][c] for c in range(4)) for r in range(4))


def k_corner(z, s, t):
    """Symmetric corner matrix [[t, c], [c, t]] with c = {sz}/{s}."""
    _exact(t)
    c = brace(s * z) * inv(brace(s))
    return ((t, c), (c, t))


def chi_covector(w, s):
    """Dense coefficients [uu, ud, du, dd] of the two-site covector chi;
    aligned spins weigh {sw}/{s}, the corner matrix's off-diagonal entry."""
    c = brace(s * w) * inv(brace(s))
    return [c, 1, 1, c]
