"""The inhomogeneous eigenvector family and its generalized component sum.

The components at site values z_1..z_N are defined by multiple contour
integrals whose w-contours surround the simple poles at w = z_j only.  Each
integral is evaluated exactly as a residue sum: an assignment sends
integration variable i to a pole index j_i <= a_i, assignments with repeated
indices vanish (a cross factor [w_i/w_j] is zero), and at a simple pole of
1/[z/w] the combined residue and measure bookkeeping contributes a factor of
minus the remaining integrand at w = z_j.  The per-pole constant is pinned by
the closed form of the two-site component, which is unit-tested.

The residue sums run in Gaussian integers.  The site values, q and beta are
cleared once to Gaussian integers over positive integers, and every bracket
is then a Gaussian-integer difference over a monomial.  A residue term's
monomials are fixed by the positions it serves, up to one factor per pole
that the pole's factor absorbs, and the denominator of a partial sum of the
walk is fixed by its set of poles, so the walk carries no denominator: it
does integer multiply-adds only, and each component is reduced to a
GaussianRational once (`_ResidueTables`, `_residue_sums`).

Specializations that collide poles (equal site values up to sign, ratios
+-q^{+-1}, products +-q^{-2}) raise DegeneratePointError; property checkers
reach such points through exact one-variable Laurent interpolation instead,
using the stated degree-width bounds.  A curve is sampled at the abscissae of
`exact.abscissa_sweep`, which skips those where the evaluation raises, so the
residue tables are the only degeneracy test along it, and
`exact.interpolate_along` makes every spare check.

The vectors are `operators.SpinVector`s: the exchange, reflection and
reduction checks act on them with the local matrices of `operators`, and the
generalized sum pairs them with its two-site covector `chi_covector`.
"""

from __future__ import annotations

from itertools import combinations, groupby
from operator import itemgetter
from typing import Sequence

from .exact import (DegeneratePointError, DomainError, GaussianRational,
                    MultiLaurent, Scalar, UsageError, abscissa_sweep, bracket, brace,
                    div_exact_univar, from_gaussian_ints, gaussian_ints, interpolate_along,
                    inv)
from .operators import SpinVector, chi_covector, k_boundary, r_check_exchange
from .sampling import TheoremReport, _sampled, half_sites

__all__ = [
    "psi_vector",
    "psi_vector_poly_in_z", "psi_vector_homogeneous",
    "gen_sum_Z", "gen_sum_Z_poly_in_w", "rescaled_Y", "y_divisor",
    "check_exchange_and_reflection", "check_psi_reduction",
    "check_exchange_sweep", "check_reduction_sweep", "check_Z_properties",
]

_ONE = GaussianRational(1)
_ZERO = GaussianRational(0)
_I = GaussianRational(0, 1)


# ---------------------------------------------------------------------------
# residue evaluation of the components
# ---------------------------------------------------------------------------

def _gmul(x: tuple, y: tuple) -> tuple:
    """The product of two Gaussian integers given as (re, im) pairs."""
    a, b = x
    c, d = y
    return a * c - b * d, a * d + b * c


def _gprod(xs) -> tuple:
    """The product of Gaussian integers given as (re, im) pairs."""
    out = (1, 0)
    for x in xs:
        out = _gmul(out, x)
    return out


def _gpow(x: tuple, k: int) -> tuple:
    """x^k for a Gaussian integer x and k >= 0, by repeated squaring."""
    out = (1, 0)
    while k:
        if k & 1:
            out = _gmul(out, x)
        x = _gmul(x, x)
        k >>= 1
    return out


def _lin(x: tuple, k: int, y: tuple, m: int) -> tuple:
    """x*k - y*m for Gaussian integers x, y and integers k, m."""
    return x[0] * k - y[0] * m, x[1] * k - y[1] * m


def _split(x) -> tuple:
    """A nonzero exact scalar x as (u, e) with x = u/e, u a Gaussian integer
    (re, im) and e > 0 an integer; DomainError if x is zero."""
    (a,), (b,), e = gaussian_ints([x])
    if not (a or b):
        raise DomainError("division by zero in Q(i)")
    return (a, b), e


class _ResidueTables:
    """The factors of the residue sum for one site tuple as Gaussian integers
    (re, im), with every denominator tracked outside them; raises
    DegeneratePointError if any denominator bracket vanishes.

    Write z_j = u_j/e_j, q = r/f and beta = b/g with Gaussian integers u_j,
    r, b over positive integers e_j, f, g, and w_j = u_j e_j, rho = r f.
    Then every bracket is a Gaussian-integer difference over a monomial:
      [z_j/z_k]     = A_jk / (w_j w_k),       A_jk = u_j^2 e_k^2 - u_k^2 e_j^2,
      [q z_j/z_k]   = B_jk / (rho w_j w_k),   B_jk = r^2 u_j^2 e_k^2 - f^2 u_k^2 e_j^2,
      [q z_j z_k]   = C_jk / (rho w_j w_k),   C_jk = r^2 u_j^2 u_k^2 - f^2 e_j^2 e_k^2,
      [q^2 z_j z_k] = E_jk / (rho^2 w_j w_k), E_jk = r^4 u_j^2 u_k^2 - f^4 e_j^2 e_k^2,
      [beta z_p]    = F_p / (b g w_p),        F_p = b^2 u_p^2 - g^2 e_p^2,
    and [q] = G / rho with G = r^2 - f^2, so a bracket vanishes iff its
    difference does.  Sites j, poles p and pp are 0-based below, positions
    a 1-based.

    Monomials.  The factor of pole p at position a is [q^2 z_p^2] [beta z_p]
    over prod_{j<a, j!=p} [z_j/z_p] prod_{j>=a-1} [q z_j/z_p]
    prod_j [q^2 z_p z_j], 2 brackets over (a-1) + (N-a+1) + N = 2N, so its
    monomial is rho^(3N-a-1) W^2 w_(a-1) w_p^(2N-4) / (b g) with
    W = prod_j w_j; the cross factor of poles pp, p has
    1 / (rho^4 w_pp^4 w_p^4).  A residue term of n poles gives each pole
    n - 1 cross factors, so w_p keeps the exponent 2N - 4n (0 for even N, 2
    for odd N) whichever poles the term uses, and every other monomial goes
    into the global denominator.

    Differences.  The pole factor's differences are num_p c(a, p) / d_p with
    num_p = E_pp F_p, d_p = prod_{j!=p} A_jp prod_j B_jp prod_j E_pj, which
    does not depend on a, and c(a, p) = prod_{j>=a} A_jp prod_{j<a-1} B_jp.
    The cross factor B_p,pp A_pp,p C_pp,p E_pp,p of an earlier pole pp
    shares A and E with d_p d_pp; cancelling A_yx E_xy (x < y) from every
    pair leaves +-B_p,pp C_pp,p, with - iff pp < p.  So a partial sum over
    the set m of used poles is a Gaussian integer X_m over
    D(m) = prod_{p in m} d_p / prod_{x<y in m} A_yx E_xy, fixed by m.  Then
      pair[pp][p]  is +-B_p,pp C_pp,p;
      pole[a][p]   is num_p w_p^(2N-4n) c(a, p) w_(a-1) rho^(N-a), for p < a,
                   with the monomials that depend on a;
      rest(m)      is D(all sites) / D(m), a Gaussian integer;
      den          is D(all sites) over the differences of the global
                   prefactor prod_{i<j} [q z_j/z_i] [q^2 z_i z_j] (-[q])^n
                   times the walk's sign (-1)^n, with the monomials left over.
    Component a is sum_m X_m rest(m) / den over the final pole sets m of
    its walk.
    """

    def __init__(self, zs: Sequence, s, beta):
        N = len(zs)
        self.N = N
        n = N // 2
        u, e = zip(*(_split(z) for z in zs))
        r, f = _split(s * s)
        sq = [_gmul(x, x) for x in u]                 # u_j^2
        e2 = [x * x for x in e]                       # e_j^2
        r2 = _gmul(r, r)
        r4, f2 = _gmul(r2, r2), f * f
        f4 = f2 * f2
        r2sq = [_gmul(r2, x) for x in sq]
        r4sq = [_gmul(r4, x) for x in sq]
        # C and E are symmetric
        A = [[None] * N for _ in range(N)]
        B = [[None] * N for _ in range(N)]
        C = [[None] * N for _ in range(N)]
        E = [[None] * N for _ in range(N)]
        for j in range(N):
            for k in range(N):
                if j != k:
                    v = _lin(sq[j], e2[k], sq[k], e2[j])
                    if v == (0, 0):
                        raise DegeneratePointError("site values collide: z_j = +-z_k")
                    A[j][k] = v
                v = _lin(r2sq[j], e2[k], sq[k], f2 * e2[j])
                if v == (0, 0):
                    raise DegeneratePointError("site ratio hits +-1/q")
                B[j][k] = v
                if k < j:
                    C[j][k], E[j][k] = C[k][j], E[k][j]
                    continue
                x, y = _gmul(r2sq[j], sq[k])
                C[j][k] = (x - f2 * e2[j] * e2[k], y)
                x, y = _gmul(r4sq[j], sq[k])
                v = (x - f4 * e2[j] * e2[k], y)
                if v == (0, 0):
                    raise DegeneratePointError("site product hits +-1/q^2")
                E[j][k] = v
        b, g = _split(beta)
        w = [(x * k, y * k) for (x, y), k in zip(u, e)]
        rho = (r[0] * f, r[1] * f)
        self.pair = [[None] * N for _ in range(N)]
        for pp in range(N):
            for p in range(N):
                if p != pp:
                    x, y = _gmul(B[p][pp], C[pp][p])
                    self.pair[pp][p] = (x, y) if pp > p else (-x, -y)
        b2, g2 = _gmul(b, b), g * g
        col = [None] + [_gmul(w[a - 1], _gpow(rho, N - a)) for a in range(1, N + 1)]
        self.pole = [None] + [[None] * a for a in range(1, N + 1)]
        for p in range(N):
            x, y = _gmul(b2, sq[p])
            num = _gmul(_gmul(E[p][p], (x - g2 * e2[p], y)), _gpow(w[p], 2 * N - 4 * n))
            suf = [None] * (N + 1)                   # suf[a] = prod_{j>=a} A_jp
            acc = (1, 0)
            for a in range(N, p, -1):
                suf[a] = acc
                if a - 1 > p:
                    acc = _gmul(acc, A[a - 1][p])
            acc = (1, 0)                             # prod_{j<a-1} B_jp
            for a in range(1, N + 1):
                if a > p:
                    self.pole[a][p] = _gmul(_gmul(num, col[a]), _gmul(suf[a], acc))
                acc = _gmul(acc, B[a - 1][p])
        # rest(m) = +-prod_{p not in m} site[p] prod_{x<y not in m} both[x][y]
        self.site = [_gprod([E[p][p]] + [B[j][p] for j in range(N)]) for p in range(N)]
        self.both = [[_gmul(A[x][y], E[x][y]) if x < y else None for y in range(N)]
                     for x in range(N)]
        self._rest: dict = {}
        # D(all sites) = prod_{x<y} A_xy E_xy prod_p site[p] over the
        # prefactor's differences prod_{i<j} B_ji E_ij G^n is
        # G^(N-n) W^2 prod_{x<y} A_xy B_xy prod_p E_pp, since B_pp = G w_p^2;
        # the monomials left over are rho^(3N(N-1)/2 - 2n(N-n))
        # W^(2(N-n-1)) (b g)^n
        self.den = _gprod(
            [_gpow((r2[0] - f2, r2[1]), N - n),
             _gpow(rho, 3 * N * (N - 1) // 2 - 2 * n * (N - n)),
             _gpow(_gprod(w), 2 * (N - n)), _gpow((b[0] * g, b[1] * g), n)]
            + [E[x][x] for x in range(N)]
            + [_gmul(A[x][y], B[x][y]) for x in range(N) for y in range(x + 1, N)])

    def rest(self, mask: int) -> tuple:
        """D(all sites) / D(mask) as a Gaussian integer."""
        v = self._rest.get(mask)
        if v is None:
            N = self.N
            free = [p for p in range(N) if not mask >> p & 1]
            v = (1, 0)
            for i, x in enumerate(free):
                v = _gmul(v, self.site[x])
                for y in free[i + 1:]:
                    v = _gmul(v, self.both[x][y])
            # A_yx = -A_xy for each x < y with x in mask and y not
            flips = sum(1 for x in range(N) if mask >> x & 1
                        for y in free if y > x)
            if flips % 2:
                v = (-v[0], -v[1])
            self._rest[mask] = v
        return v


def _residue_sums(t: _ResidueTables, tuples: Sequence[tuple]) -> dict:
    """Residue sums, as Gaussian integers (re, im) to be divided by t.den,
    for position tuples of one length given in lexicographic order.

    An assignment sends variable i to a distinct pole p_i < a_i and weighs
    prod_i pole[a_i][p_i] * prod_{ii<i} pair[p_ii][p_i].  The pair factors of
    variable i depend only on the set of earlier poles, so after level i the
    walk keeps one partial sum per set of used poles (a bitmask), summed over
    the orderings of that set.  Tuples sharing a prefix share its states.

    Every term of a set's partial sum divides by d_p once for each pole p
    of the set, so the sum's denominator D(m) of _ResidueTables is fixed by
    the set: the walk carries no denominator and does integer multiply-adds
    only.  At the last level each final set's sum is brought over the common
    denominator by t.rest.
    """
    N, pole, pair = t.N, t.pole, t.pair
    n = len(tuples[0])
    cross = {0: [(1, 0)] * N}  # mask -> [prod_{pp in mask} pair[pp][p] for p]
    steps: dict = {}           # (mask, a) -> [(mask | p, *(cross * pole[a][p]))]
    ends: dict = {}            # (mask, a) -> sum of those factors times t.rest

    def cross_of(mask: int) -> list:
        c = cross.get(mask)
        if c is None:
            top = mask.bit_length() - 1
            prev, row = cross_of(mask ^ (1 << top)), pair[top]
            c = [None if mask >> p & 1 else _gmul(prev[p], row[p]) for p in range(N)]
            cross[mask] = c
        return c

    def factors(mask: int, a: int) -> list:
        key = (mask, a)
        fs = steps.get(key)
        if fs is None:
            c, col = cross_of(mask), pole[a]
            fs = [(mask | 1 << p, *_gmul(c[p], col[p]))
                  for p in range(a) if not mask >> p & 1]
            steps[key] = fs
        return fs

    def step(state: dict, a: int) -> dict:
        out: dict = {}
        for mask, (vr, vi) in state.items():
            for m2, fr, fi in factors(mask, a):
                wr, wi = vr * fr - vi * fi, vr * fi + vi * fr
                u = out.get(m2)
                out[m2] = (wr, wi) if u is None else (u[0] + wr, u[1] + wi)
        return out

    def finish(state: dict, a: int) -> tuple:
        tr = ti = 0
        for mask, (vr, vi) in state.items():
            e = ends.get((mask, a))
            if e is None:
                er = ei = 0
                for m2, fr, fi in factors(mask, a):
                    x, y = _gmul((fr, fi), t.rest(m2))
                    er, ei = er + x, ei + y
                e = ends[(mask, a)] = (er, ei)
            tr += vr * e[0] - vi * e[1]
            ti += vr * e[1] + vi * e[0]
        return tr, ti

    out = {}

    def descend(i: int, group: list, state: dict):
        if i == n - 1:
            for a in group:
                out[a] = finish(state, a[i])
            return
        for ai, sub in groupby(group, key=itemgetter(i)):
            descend(i + 1, list(sub), step(state, ai))

    descend(0, list(tuples), {0: (1, 0)})
    # the recursive closures are reference cycles: empty their cells, so
    # the tables go now rather than at the next cyclic garbage collection
    del cross_of, descend
    return out


def psi_vector(N: int, zs: Sequence, s, beta) -> SpinVector:
    """The eigenvector-family vector at the given site values (exact)."""
    if N < 0:
        raise UsageError("N must be >= 0")
    if len(zs) != N:
        raise UsageError(f"need {N} site values")
    if N <= 1:
        return SpinVector.make(N, {(): _ONE})
    t = _ResidueTables(zs, s, beta)
    dr, di = t.den
    norm = dr * dr + di * di
    amps = {}
    for a, (vr, vi) in _residue_sums(t, list(combinations(range(1, N + 1), N // 2))).items():
        if vr or vi:  # (vr + vi i) / den = (vr + vi i) conj(den) / |den|^2
            amps[a], = from_gaussian_ints([vr * dr + vi * di], [vi * dr - vr * di], norm)
    return SpinVector(N, amps)


# ---------------------------------------------------------------------------
# interpolation along a curve through degenerate specializations
# ---------------------------------------------------------------------------

def _psi_along(var: str, N: int, sites, s, beta, h: int, parity, spare: int) -> dict:
    """The components of psi_vector(N, sites(x), s, beta) as exact Laurent
    polynomials in var with exponents in [-h, h], given that component a is
    x^parity(a) times a polynomial P_a in y = x^2.

    P_a has exponents in [-((h+1)//2), h//2], so it is interpolated in y at
    h + 1 abscissae of distinct squares (not 2h + 1 in x), and checked at
    `spare` more: a wrong parity or a too-small window raises DomainError.
    The fit in y carries the name var, so that error names the curve.
    """
    squares: set = set()

    def sample(x) -> dict:
        y = x * x
        if y in squares:
            raise DegeneratePointError("repeated square")
        amps = psi_vector(N, sites(x), s, beta).amps
        squares.add(y)
        xi = inv(x)
        return {a: v * xi if parity(a) else v for a, v in amps.items()}

    fits = interpolate_along(var, ((x * x, v) for x, v in abscissa_sweep(sample)),
                             -((h + 1) // 2), h // 2, spare)
    return {a: MultiLaurent((var,), {(2 * e + parity(a),): c for (e,), c in p.terms.items()})
            for a, p in fits.items()}


def psi_vector_poly_in_z(N: int, zs: Sequence, i: int, s, beta) -> dict:
    """All components as exact Laurent polynomials in z_i (others fixed),
    interpolated in z_i^2 at nondegenerate abscissae and cross-validated at two
    more."""
    if not 1 <= i <= N:
        raise UsageError("variable index out of range")
    gaussian_ints(zs)   # refuses a value that is not exact, the replaced one too

    def at(x) -> list:
        pt = list(zs)
        pt[i - 1] = x
        return pt

    # Each component is centred in z_i with |exponent| <= N - 1, the stated
    # degree-width bound max(2(n'-1), 2n-1) for n = N//2, n' = N - n.
    # The sign rule psi_a(.., -z_i, ..) = (-1)^[i in a] psi_a(.., z_i, ..):
    # every bracket [v] = v - 1/v is odd in v, so a bracket with z_i to the
    # first power ([z_j/z_i], [q z_j/z_i], [q z_j z_i], [q^2 z_j z_i] for
    # j != i, and [beta z_i]) changes sign, while [q^2 z_i^2] and [q] do not.
    # In the residue sum (sites p, positions a, both 1-based here; counted in
    # brackets, which _ResidueTables holds split into differences and
    # monomials) the pair factor of sites p != pp holds four such brackets
    # when z_i is z_p or z_pp and none otherwise, and the prefactor holds two
    # per pair (j, i).  The pole factor of site p at position a holds
    # 1 + (a-1) + (N-a+1-[p=a]) + (N-1) of them when i = p and
    # [i<=a] + [i>=a] + 1 otherwise, so it flips sign iff a = i.  Each
    # residue term of component a has one pole factor per position of a.
    return _psi_along("z", N, at, s, beta, N - 1, lambda a: int(i in a), 2)


def psi_vector_homogeneous(N: int, s, beta) -> SpinVector:
    """The vector with every site value specialized to 1, via exact
    interpolation along the curve z_k = lambda^(k-1)."""
    if N < 0:
        raise UsageError("N must be >= 0")
    if N <= 1:
        return SpinVector.make(N, {(): _ONE})

    def at(lam) -> list:
        return [lam ** k for k in range(N)]

    # each component has |exponent| <= N - 1 in z_k (psi_vector_poly_in_z),
    # so |exponent of lambda| <= (N - 1) * sum_k (k - 1); lambda -> -lambda
    # negates z_k for even k, so by the sign rule of psi_vector_poly_in_z
    # component a has the parity of #{k in a : k even}
    polys = _psi_along("l", N, at, s, beta, (N - 1) * (N * (N - 1) // 2),
                       lambda a: sum(1 for k in a if k % 2 == 0) % 2, 1)
    return SpinVector.make(N, {k: p.eval_at({"l": _ONE}) for k, p in polys.items()})


# ---------------------------------------------------------------------------
# the generalized component sum
# ---------------------------------------------------------------------------

def _gen_sum_at(N: int, ws: Sequence, s, beta) -> GaussianRational:
    """The generalized sum at nondegenerate w values: the vector at sites
    (w_1, 1/w_1, ..., w_n, 1/w_n[, 1]) paired with the covector that weighs
    every site pair (2i-1, 2i) whose spins agree by {s w_i}/{s}."""
    zs = half_sites(ws, N % 2)   # first: it refuses a zero w
    cs = [chi_covector(w, s)[0] for w in ws]
    total = _ZERO
    for key, amp in psi_vector(N, zs, s, beta).amps.items():
        for i, c in enumerate(cs):
            if (2 * i + 1 in key) + (2 * i + 2 in key) != 1:
                amp = amp * c
        total = total + amp
    return total


def gen_sum_Z(N: int, ws: Sequence, s, beta) -> Scalar:
    """The generalized component sum at exact w values.

    The all-ones point (the homogeneous limit) is evaluated through the
    one-parameter curve w_i = lambda^i; any other degenerate point raises
    DegeneratePointError.
    """
    if N < 0:
        raise UsageError("N must be >= 0")
    n = N // 2
    if len(ws) != n:
        raise UsageError(f"need {n} w values")
    if N <= 1:
        return _ONE
    if all(w == 1 for w in ws):
        return gen_sum_Z_homogeneous(N, s, beta)
    return _gen_sum_at(N, ws, s, beta)


def gen_sum_Z_homogeneous(N: int, s, beta) -> Scalar:
    """The generalized component sum at w = (1, ..., 1), by interpolation in
    lambda along w_i = lambda^i."""
    if N < 0:
        raise UsageError("N must be >= 0")
    if N <= 1:
        return _ONE
    n = N // 2
    # the sum is centred of halfwidth 2N-3 in each w_i (gen_sum_Z_poly_in_w),
    # so |exponent of lambda| <= (2N-3) * sum_i i
    h = (2 * N - 3) * (n * (n + 1) // 2)
    samples = abscissa_sweep(
        lambda lam: _gen_sum_at(N, [lam ** i for i in range(1, n + 1)], s, beta))
    return interpolate_along("l", samples, -h, h, 1).eval_at({"l": _ONE})


def gen_sum_Z_poly_in_w(N: int, ws: Sequence, i: int, s, beta) -> MultiLaurent:
    """The generalized sum as an exact Laurent polynomial in w_i, interpolated
    at nondegenerate abscissae and cross-validated at two more."""
    if not 1 <= i <= N // 2:
        raise UsageError("variable index out of range")
    gaussian_ints(ws)   # refuses a value that is not exact, the replaced one too
    # the stated bound: centred in w_i of width at most 2(2N-3), which
    # check_Z_properties records as "degree_width"
    h = 2 * N - 3
    samples = abscissa_sweep(lambda x: _gen_sum_at(N, [*ws[:i - 1], x, *ws[i:]], s, beta))
    return interpolate_along("w", samples, -h, h, 2)


def y_divisor(N: int, ws: Sequence, s):
    """The elementary product dividing the sum: prod [w_i/q^{1/2}] and, for odd
    size, also prod [q w_i][q/w_i].  A w may be a MultiLaurent variable; then
    so is the product."""
    q = s * s
    d = _ONE
    for w in ws:
        d = d * bracket(inv(s) * w)
        if N % 2:
            d = d * bracket(q * w) * bracket(q * inv(w))
    return d


def _rescale(N: int, z: GaussianRational, ws: Sequence, s) -> GaussianRational:
    """z divided by y_divisor(N, ws, s); DomainError if the divisor vanishes."""
    d = y_divisor(N, ws, s)
    if not d:
        raise DomainError("rescaling divisor vanishes at this point")
    return z * inv(d)


def rescaled_Y(N: int, ws: Sequence, s, beta) -> GaussianRational:
    """The generalized sum divided by its forced elementary factors."""
    if N <= 1:
        return _ONE
    return _rescale(N, gen_sum_Z(N, ws, s, beta), ws, s)


# ---------------------------------------------------------------------------
# relation checkers
# ---------------------------------------------------------------------------

def check_exchange_and_reflection(N: int, i: int, zs: Sequence, s, beta) -> dict:
    """Exchange at (i, i+1) and the left boundary reflection, both exact."""
    if not 1 <= i <= N - 1:
        raise UsageError("need 1 <= i <= N-1")
    base = psi_vector(N, zs, s, beta)
    fails = []

    swapped = list(zs)
    swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
    lhs = base.apply_two_site(r_check_exchange(zs[i - 1] * inv(zs[i]), s), i)
    rhs = psi_vector(N, swapped, s, beta)
    if lhs != rhs:
        fails.append({"relation": "exchange", "i": i})

    reflected = [inv(zs[0])] + list(zs[1:])
    lhs2 = base.apply_one_site(k_boundary(inv(zs[0]), beta), 1)
    rhs2 = psi_vector(N, reflected, s, beta)
    if lhs2 != rhs2:
        fails.append({"relation": "left_reflection"})
    return {"property": "exchange_reflection", "N": N, "i": i,
            "pass": not fails, "failures": fails}


def check_psi_reduction(N: int, i: int, zs: Sequence, s, beta) -> dict:
    """Specializing z_{i+1} = z_i/q factors the vector through a singlet
    insertion with an explicit elementary prefactor."""
    if N < 2 or not 1 <= i <= N - 1:
        raise UsageError("need N >= 2 and 1 <= i <= N-1")
    q = s * s
    zi = zs[i - 1]
    special = zi * inv(q)

    polys = psi_vector_poly_in_z(N, zs, i + 1, s, beta)
    lhs = SpinVector.make(N, {k: p.eval_at({"z": special}) for k, p in polys.items()})

    pref = bracket(beta * zi)
    for j in range(1, i):
        pref = pref * bracket(q * zi * inv(zs[j - 1])) * bracket(q * zi * zs[j - 1])
    for j in range(i + 2, N + 1):
        pref = pref * bracket(q * q * inv(zi) * zs[j - 1]) * bracket(q * zi * zs[j - 1])
    if (N // 2 + i + 1) % 2:
        pref = -pref
    inner = psi_vector(N - 2, zs[:i - 1] + zs[i + 1:], s, beta)
    rhs = inner.insert_singlet(i).scale(pref)
    ok = lhs == rhs
    return {"property": "reduction", "N": N, "i": i, "pass": ok,
            "failures": [] if ok else [{"relation": "reduction", "i": i}]}


def _sweep(statement: str, check, max_n: int, trials: int, seed: int) -> TheoremReport:
    """The report of check(N, i, zs, s, beta) over N = 2..max_n: one (s, beta)
    draw per N, then `trials` site draws, each checked at every i < N.  A
    sweep that would check nothing (max_n < 2, or no trials) is refused."""
    rep, rng = _sampled(statement, trials, seed, 2, max_n=max_n)
    for N in range(2, max_n + 1):
        s, beta = rng.s_value(), rng.beta_value()
        for _ in range(trials):
            zs = rng.z_point(N, s, beta)
            for i in range(1, N):
                for f in check(N, i, zs, s, beta)["failures"]:
                    rep.fail(**f, N=N, point={"z": zs, "s": s, "beta": beta})
    return rep


def check_exchange_sweep(max_n: int, trials: int = 20, seed: int = 42) -> TheoremReport:
    """check_exchange_and_reflection at every i of sampled points, N = 2..max_n."""
    return _sweep("exchange", check_exchange_and_reflection, max_n, trials, seed)


def check_reduction_sweep(max_n: int, trials: int = 20, seed: int = 42) -> TheoremReport:
    """check_psi_reduction at every i of sampled points, N = 2..max_n."""
    return _sweep("reduction", check_psi_reduction, max_n, trials, seed)


# check_Z_properties runs its interpolation subchecks on this many trials
_INTERP_TRIALS = 2


def _centred_within(degrees, width: int) -> bool:
    """A degree_range (lo, hi) has lo = -hi and hi - lo <= width, or is None
    (the zero polynomial)."""
    if degrees is None:
        return True
    lo, hi = degrees
    return lo == -hi and hi - lo <= width


def check_Z_properties(N: int, trials: int = 20, seed: int = 42) -> TheoremReport:
    """All stated properties of the generalized sum for one chain size.

    Covers: symmetry under adjacent swaps, the sign flip under w -> -w, the
    inversion identity, the forced zeros at +-q^{1/2} (and +-1/q for odd size),
    the centred degree-width bound by interpolation, the rescaled sum being an
    even inversion-symmetric polynomial of width at most 8(n-1), and the two
    reduction relations.  The report counts each subcheck by name.  A trial
    that meets a degenerate point is counted in `skipped`; the interpolation
    subchecks run on the first _INTERP_TRIALS trials that were not skipped,
    and the check fails if every trial was.  A request that would check
    nothing (N < 2, or no trials) is refused.
    """
    rep, rng = _sampled(f"generalized_sum_properties_N{N}", trials, seed, 2, N=N)
    n = N // 2

    def record(name: str, ok: bool, **info):
        rep.subchecks[name] = rep.subchecks.get(name, 0) + 1
        if not ok:
            rep.fail(property=name, **info)

    for t in range(trials):
        s = rng.s_value()
        beta = rng.beta_value()
        q = s * s
        ws = list(rng.w_point(N, s))
        try:
            z0 = gen_sum_Z(N, ws, s, beta)

            if n >= 2:
                for i in range(n - 1):
                    swapped = list(ws)
                    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                    zs = gen_sum_Z(N, swapped, s, beta)
                    record("symmetry", zs == z0, lhs=zs, rhs=z0)
            flipped = [-ws[0]] + ws[1:]
            zf = gen_sum_Z(N, flipped, s, beta)
            record("sign_flip", zf == -z0, lhs=zf, rhs=-z0)
            inverted = [inv(ws[0])] + ws[1:]
            lhs = bracket(inv(s) * ws[0]) * gen_sum_Z(N, inverted, s, beta)
            rhs = bracket(inv(s) * inv(ws[0])) * z0
            record("inversion", lhs == rhs, lhs=lhs, rhs=rhs)
        except DegeneratePointError:
            rep.skipped += 1
            continue

        if t - rep.skipped < _INTERP_TRIALS:
            poly = gen_sum_Z_poly_in_w(N, ws, 1, s, beta)
            rng_w = poly.degree_range("w")
            record("degree_width", _centred_within(rng_w, 2 * (2 * N - 3)), range=rng_w)
            for z in (s, -s):
                record("zero_at_sqrt_q", not poly.eval_at({"w": z}))
            if N % 2:
                for z in (inv(q), -inv(q)):
                    record("zero_at_inv_q", not poly.eval_at({"w": z}))

            # rescaled sum: a polynomial (the divisor leaves no remainder),
            # even and inversion-symmetric, of width <= 8(n-1)
            try:
                ypoly = div_exact_univar(poly, y_divisor(N, [MultiLaurent.var("w")], s), "w")
            except DomainError:
                ypoly = None
            record("y_polynomial", ypoly is not None)
            if ypoly is not None:
                rng_y = ypoly.degree_range("w")
                record("y_even", all(e[0] % 2 == 0 for e in ypoly.terms))
                record("y_inversion",
                       all(ypoly.terms.get((-e[0],), 0) == c
                           for e, c in ypoly.terms.items()))
                record("y_width", _centred_within(rng_y, 8 * (n - 1)), range=rng_y)

            # reduction at w_1 = i q^{1/2}
            wi = _I * s
            zval = poly.eval_at({"w": wi})
            ylhs = _rescale(N, zval, [wi] + ws[1:], s)
            yrhs = brace(s * beta)
            if N % 2:
                yrhs = yrhs * brace(s ** 3) * inv(brace(s))
            if n % 2 == 0:
                yrhs = -yrhs
            for w in ws[1:]:
                yrhs = yrhs * brace(s ** 3 * w) ** 2 * brace(s ** 3 * inv(w)) ** 2
            yrhs = yrhs * rescaled_Y(N - 2, ws[1:], s, beta)
            record("reduction_half_turn", ylhs == yrhs, lhs=ylhs, rhs=yrhs)

            if N >= 4 and n >= 2:
                poly2 = gen_sum_Z_poly_in_w(N, ws, 2, s, beta)
                w2 = inv(q) * ws[0]
                zval2 = poly2.eval_at({"w": w2})
                ylhs2 = _rescale(N, zval2, [ws[0], w2] + ws[2:], s)
                f = _f_reduction(N, ws[0], s, beta)
                for w in ws[2:]:
                    f = f * (bracket(q * ws[0] * w) * bracket(q * ws[0] * inv(w))
                             * bracket(q * q * w * inv(ws[0]))
                             * bracket(q * q * inv(ws[0]) * inv(w))) ** 2
                yrhs2 = f * rescaled_Y(N - 4, ws[2:], s, beta)
                record("reduction_pair", ylhs2 == yrhs2, lhs=ylhs2, rhs=yrhs2)

    if rep.skipped == trials:
        rep.fail(property="no_trials_ran")
    return rep


def _f_reduction(N: int, w, s, beta) -> GaussianRational:
    """The elementary prefactor of the pair reduction relation."""
    q = s * s
    f = (-(bracket(q * q) ** 2) * brace(s * w) * brace(s ** 3 * inv(w))
         * bracket(beta * w) * bracket(beta * q * inv(w)) * inv(brace(s)) ** 2)
    if N % 2 == 0:
        return f * bracket(w) * bracket(q * inv(w))
    return f * bracket(q * w) * bracket(q * q * inv(w))
