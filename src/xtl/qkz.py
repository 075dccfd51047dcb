"""The inhomogeneous eigenvector family and its generalized component sum.

The components at site values z_1..z_N are defined by multiple contour
integrals whose w-contours surround the simple poles at w = z_j only.  Each
integral is evaluated exactly as a residue sum: an assignment sends
integration variable i to a pole index j_i <= a_i, assignments with repeated
indices vanish (a cross factor [w_i/w_j] is zero), and at a simple pole of
1/[z/w] the combined residue and measure bookkeeping contributes a factor of
minus the remaining integrand at w = z_j.  The per-pole constant is pinned by
the closed form of the two-site component, which is unit-tested.

Specializations that collide poles (equal site values up to sign, ratios
+-q^{+-1}, products +-q^{-2}) raise DegeneratePointError; property checkers
reach such points through exact one-variable Laurent interpolation instead,
using the stated degree-width bounds.

The vectors are `operators.SpinVector`s: the exchange, reflection and
reduction checks act on them with the local matrices of `operators`, and the
generalized sum pairs them with its two-site covector `chi_covector`.
"""

from __future__ import annotations

from itertools import combinations, groupby, islice
from operator import itemgetter
from typing import Sequence

from .exact import (DegeneratePointError, DomainError, GaussianRational,
                    MultiLaurent, UsageError, abscissa_sweep, as_gaussian, bracket,
                    brace, div_exact_univar, interpolate_along, inv)
from .operators import SpinVector, chi_covector, k_boundary, r_check_exchange
from .sampling import ExactSampler, half_sites, z_point_degenerate

__all__ = [
    "psi_vector",
    "psi_vector_poly_in_z", "psi_vector_homogeneous",
    "gen_sum_Z", "gen_sum_Z_poly_in_w", "rescaled_Y", "y_divisor",
    "check_exchange_and_reflection", "check_psi_reduction", "check_Z_properties",
]

_ONE = GaussianRational(1)
_ZERO = GaussianRational(0)
_I = GaussianRational(0, 1)


# ---------------------------------------------------------------------------
# residue evaluation of the components
# ---------------------------------------------------------------------------

class _ResidueTables:
    """Bracket tables for one site tuple, and the pole and pair factors of the
    residue sum built from them; raises DegeneratePointError if any
    denominator bracket vanishes."""

    def __init__(self, zs: Sequence, s, beta):
        N = len(zs)
        self.N = N
        zs = [as_gaussian(z) for z in zs]
        s, beta = as_gaussian(s), as_gaussian(beta)
        q = s * s
        # each bracket [v] = v - 1/v is formed from v and 1/v, both products
        # of the site values, their inverses and powers of q
        zinv = [z.inverse() for z in zs]
        qi = q.inverse()
        qz = [q * z for z in zs]
        qzi = [qi * z for z in zinv]
        q2z = [q * z for z in qz]
        q2zi = [qi * z for z in qzi]
        # [z_k/z_j] = -[z_j/z_k]; the product tables are symmetric
        ratio = [[None] * N for _ in range(N)]      # [z_j / z_k]
        qratio = [[None] * N for _ in range(N)]     # [q z_j / z_k]
        qprod = [[None] * N for _ in range(N)]      # [q z_j z_k]
        q2prod = [[None] * N for _ in range(N)]     # [q^2 z_j z_k]
        for j in range(N):
            for k in range(N):
                if j != k:
                    v = -ratio[k][j] if k < j else zs[j] * zinv[k] - zs[k] * zinv[j]
                    if v.is_zero():
                        raise DegeneratePointError("site values collide: z_j = +-z_k")
                    ratio[j][k] = v
                v = qz[j] * zinv[k] - zs[k] * qzi[j]
                if v.is_zero():
                    raise DegeneratePointError("site ratio hits +-1/q")
                qratio[j][k] = v
                if k < j:
                    qprod[j][k], q2prod[j][k] = qprod[k][j], q2prod[k][j]
                    continue
                qprod[j][k] = qz[j] * zs[k] - qzi[j] * zinv[k]
                v = q2z[j] * zs[k] - q2zi[j] * zinv[k]
                if v.is_zero():
                    raise DegeneratePointError("site product hits +-1/q^2")
                q2prod[j][k] = v
        self.qratio, self.q2prod = qratio, q2prod
        # pair[pp][p]: the cross factor an earlier pole pp gives to pole p
        self.pair = [[qratio[p][pp] * ratio[pp][p] * qprod[pp][p] * q2prod[pp][p]
                      if p != pp else None for p in range(N)] for pp in range(N)]
        # pole[p][a] for p < a: [q^2 z_p^2] [beta z_p] over the three
        # denominator groups prod_{j<=a, j!=p} [z_j/z_p], prod_{j>=a} [q z_j/z_p]
        # and prod_j [q^2 z_p z_j] (positions 1-based, poles 0-based)
        self.pole = []
        for p in range(N):
            num = q2prod[p][p] * bracket(beta * zs[p])
            d3 = _ONE
            for j in range(N):
                d3 = d3 * q2prod[p][j]
            d2 = [None] * (N + 2)
            acc = d3
            for a in range(N, p, -1):
                acc = acc * qratio[a - 1][p]
                d2[a] = acc
            row = [None] * (N + 1)
            acc = _ONE
            for a in range(1, N + 1):
                if a - 1 != p:
                    acc = acc * ratio[a - 1][p]
                if a > p:
                    row[a] = num * (acc * d2[a]).inverse()
            self.pole.append(row)


def _prefactor(t: _ResidueTables, n: int) -> GaussianRational:
    p = _ONE
    for i in range(t.N):
        for j in range(i + 1, t.N):
            p = p * t.qratio[j][i] * t.q2prod[i][j]
    return p * (-t.qratio[0][0]) ** n  # qratio[j][j] is [q]


def _residue_sums(t: _ResidueTables, tuples: Sequence[tuple]) -> dict:
    """Residue sums, without the global prefactor, for position tuples of one
    length given in lexicographic order.

    An assignment sends variable i to a distinct pole p_i < a_i and weighs
    prod_i pole[p_i][a_i] * prod_{ii<i} pair[p_ii][p_i].  The pair factors of
    variable i depend only on the set of earlier poles, so after level i the
    walk keeps one partial sum per set of used poles (a bitmask), summed over
    the orderings of that set.  Tuples sharing a prefix share its states.
    """
    N, pole, pair = t.N, t.pole, t.pair
    n = len(tuples[0])
    cross = {0: [_ONE] * N}   # mask -> [prod_{pp in mask} pair[pp][p] for p]
    steps: dict = {}          # (mask, a) -> [(mask | p, cross * pole[p][a])]
    ends: dict = {}           # (mask, a) -> sum of those factors

    def cross_of(mask: int) -> list:
        c = cross.get(mask)
        if c is None:
            top = mask.bit_length() - 1
            prev, row = cross_of(mask ^ (1 << top)), pair[top]
            c = [None if mask >> p & 1 else prev[p] * row[p] for p in range(N)]
            cross[mask] = c
        return c

    def factors(mask: int, a: int) -> list:
        key = (mask, a)
        fs = steps.get(key)
        if fs is None:
            c = cross_of(mask)
            fs = [(mask | 1 << p, c[p] * pole[p][a])
                  for p in range(a) if not mask >> p & 1]
            steps[key] = fs
        return fs

    def step(state: dict, a: int) -> dict:
        out: dict = {}
        for mask, v in state.items():
            for m2, f in factors(mask, a):
                w = v * f
                u = out.get(m2)
                out[m2] = w if u is None else u + w
        return out

    def finish(state: dict, a: int) -> GaussianRational:
        total = _ZERO
        for mask, v in state.items():
            e = ends.get((mask, a))
            if e is None:
                e = _ZERO
                for _, f in factors(mask, a):
                    e = e + f
                ends[(mask, a)] = e
            total = total + v * e
        return total if n % 2 == 0 else -total

    out = {}

    def descend(i: int, group: list, state: dict):
        if i == n - 1:
            for a in group:
                out[a] = finish(state, a[i])
            return
        for ai, sub in groupby(group, key=itemgetter(i)):
            descend(i + 1, list(sub), step(state, ai))

    descend(0, list(tuples), {0: _ONE})
    return out


def psi_vector(N: int, zs: Sequence, s, beta) -> SpinVector:
    """The eigenvector-family vector at the given site values (exact)."""
    if N < 0:
        raise UsageError("N must be >= 0")
    if N <= 1:
        return SpinVector.make(N, {(): _ONE})
    if len(zs) != N:
        raise UsageError(f"need {N} site values")
    t = _ResidueTables(zs, s, beta)
    n = N // 2
    pref = _prefactor(t, n)
    amps = {}
    for a, v in _residue_sums(t, list(combinations(range(1, N + 1), n))).items():
        v = pref * v
        if not v.is_zero():
            amps[a] = v
    return SpinVector(N, amps)


# ---------------------------------------------------------------------------
# interpolation along a curve through degenerate specializations
# ---------------------------------------------------------------------------

def _along(var: str, value, sites, s, h: int, spare: int):
    """value(x) as an exact Laurent polynomial in var with exponents in
    [-h, h], sampled at the sweep's abscissae x whose site tuple sites(x) is
    nondegenerate and cross-validated at `spare` more."""
    xs = abscissa_sweep(lambda x: not z_point_degenerate(sites(x), s))
    return interpolate_along(var, ((x, value(x)) for x in xs), -h, h, spare)


def _psi_along(var: str, N: int, sites, s, beta, h: int, parity, spare: int) -> dict:
    """The components of psi_vector(N, sites(x), s, beta) as exact Laurent
    polynomials in var with exponents in [-h, h], given that component a is
    x^parity(a) times a polynomial P_a in y = x^2.

    P_a has exponents in [-((h+1)//2), h//2], so it is interpolated in y at
    h + 1 abscissae of distinct squares (not 2h + 1 in x) whose site tuples
    are nondegenerate.  The `spare` pairs are direct evaluations at further
    such abscissae, compared with the rebuilt polynomials in var: a wrong
    parity or a too-small window raises DomainError.
    """
    squares: set = set()

    def fresh(x) -> bool:
        y = x * x
        if y in squares or z_point_degenerate(sites(x), s):
            return False
        squares.add(y)
        return True

    lo, hi = -((h + 1) // 2), h // 2
    m = hi - lo + 1
    pts = [(x, psi_vector(N, sites(x), s, beta).amps)
           for x in islice(abscissa_sweep(fresh), m + spare)]

    def fit_sample(x, amps):
        xi = x.inverse()
        return x * x, {a: v * xi if parity(a) else v for a, v in amps.items()}

    fits = interpolate_along("y", (fit_sample(x, amps) for x, amps in pts[:m]), lo, hi, 0)
    polys = {a: MultiLaurent((var,), {(2 * e + parity(a),): c for (e,), c in p.terms.items()})
             for a, p in fits.items()}
    for x, amps in pts[m:]:
        for a in polys.keys() | amps.keys():
            p = polys.get(a)
            if (p.eval_at({var: x}) if p else 0) != amps.get(a, 0):
                raise DomainError(f"interpolation window [{-h}, {h}] in {var} with "
                                  "the sign rule does not fit")
    return polys


def psi_vector_poly_in_z(N: int, zs: Sequence, i: int, s, beta) -> dict:
    """All components as exact Laurent polynomials in z_i (others fixed),
    interpolated in z_i^2 at nondegenerate abscissae and cross-validated at two
    more."""
    if not 1 <= i <= N:
        raise UsageError("variable index out of range")
    zs = [as_gaussian(z) for z in zs]
    s = as_gaussian(s)

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
    # In _ResidueTables (sites p, positions a, both 1-based here) the pair
    # factor of sites p != pp holds four such brackets when z_i is z_p or z_pp
    # and none otherwise, and the prefactor holds two per pair (j, i).  The
    # pole factor of site p at position a holds 1 + (a-1) + (N-a+1-[p=a]) +
    # (N-1) of them when i = p and [i<=a] + [i>=a] + 1 otherwise, so it flips
    # sign iff a = i.  Each residue term of component a has one pole factor
    # per position of a.
    return _psi_along("z", N, at, s, beta, N - 1, lambda a: int(i in a), 2)


def psi_vector_homogeneous(N: int, s, beta) -> SpinVector:
    """The vector with every site value specialized to 1, via exact
    interpolation along the curve z_k = lambda^(k-1)."""
    if N <= 1:
        return SpinVector.make(N, {(): _ONE})
    s = as_gaussian(s)

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
    s = as_gaussian(s)
    zs = half_sites(ws, N % 2)   # first: it refuses a zero w
    cs = [chi_covector(w, s)[0] for w in ws]
    total = _ZERO
    for key, amp in psi_vector(N, zs, s, beta).amps.items():
        for i, c in enumerate(cs):
            if (2 * i + 1 in key) + (2 * i + 2 in key) != 1:
                amp = amp * c
        total = total + amp
    return total


def gen_sum_Z(N: int, ws: Sequence, s, beta) -> GaussianRational:
    """The generalized component sum at exact w values.

    The all-ones point (the homogeneous limit) is evaluated through the
    one-parameter curve w_i = lambda^i; any other degenerate point raises
    DegeneratePointError.
    """
    if N < 0:
        raise UsageError("N must be >= 0")
    if N <= 1:
        return _ONE
    n = N // 2
    if len(ws) != n:
        raise UsageError(f"need {n} w values")
    ws = [as_gaussian(w) for w in ws]
    if all(w == 1 for w in ws):
        return gen_sum_Z_homogeneous(N, s, beta)
    return _gen_sum_at(N, ws, s, beta)


def gen_sum_Z_homogeneous(N: int, s, beta) -> GaussianRational:
    """The generalized component sum at w = (1, ..., 1), by interpolation in
    lambda along w_i = lambda^i."""
    if N <= 1:
        return _ONE
    n = N // 2
    s = as_gaussian(s)

    def at(lam) -> list:
        return [lam ** (i + 1) for i in range(n)]

    # the sum is centred of halfwidth 2N-3 in each w_i (gen_sum_Z_poly_in_w),
    # so |exponent of lambda| <= (2N-3) * sum_i i
    poly = _along("l", lambda lam: _gen_sum_at(N, at(lam), s, beta),
                  lambda lam: half_sites(at(lam), N % 2), s,
                  (2 * N - 3) * (n * (n + 1) // 2), 1)
    return as_gaussian(poly.eval_at({"l": _ONE}))


def gen_sum_Z_poly_in_w(N: int, ws: Sequence, i: int, s, beta) -> MultiLaurent:
    """The generalized sum as an exact Laurent polynomial in w_i, interpolated
    at nondegenerate abscissae and cross-validated at two more."""
    if not 1 <= i <= N // 2:
        raise UsageError("variable index out of range")
    ws = [as_gaussian(w) for w in ws]
    s = as_gaussian(s)

    def at(x) -> list:
        pt = list(ws)
        pt[i - 1] = x
        return pt

    # the stated bound: centred in w_i of width at most 2(2N-3), which
    # check_Z_properties records as "degree_width"
    return _along("w", lambda x: _gen_sum_at(N, at(x), s, beta),
                  lambda x: half_sites(at(x), N % 2), s, 2 * N - 3, 2)


def y_divisor(N: int, ws: Sequence, s):
    """The elementary product dividing the sum: prod [w_i/q^{1/2}] and, for odd
    size, also prod [q w_i][q/w_i].  A w may be a MultiLaurent variable; then
    so is the product."""
    s = as_gaussian(s)
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
    if d.is_zero():
        raise DomainError("rescaling divisor vanishes at this point")
    return z * d.inverse()


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
    zs = [as_gaussian(z) for z in zs]
    base = psi_vector(N, zs, s, beta)
    fails = []

    swapped = list(zs)
    swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
    lhs = base.apply_two_site(r_check_exchange(zs[i - 1] * zs[i].inverse(), s), i)
    rhs = psi_vector(N, swapped, s, beta)
    if lhs != rhs:
        fails.append({"relation": "exchange", "i": i})

    reflected = [zs[0].inverse()] + list(zs[1:])
    lhs2 = base.apply_one_site(k_boundary(zs[0].inverse(), beta), 1)
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
    zs = [as_gaussian(z) for z in zs]
    s, beta = as_gaussian(s), as_gaussian(beta)
    q = s * s
    zi = zs[i - 1]
    special = zi * q.inverse()

    polys = psi_vector_poly_in_z(N, zs, i + 1, s, beta)
    lhs = SpinVector.make(N, {k: p.eval_at({"z": special}) for k, p in polys.items()})

    pref = bracket(beta * zi)
    for j in range(1, i):
        pref = pref * bracket(q * zi * zs[j - 1].inverse()) * bracket(q * zi * zs[j - 1])
    for j in range(i + 2, N + 1):
        pref = pref * bracket(q * q * zi.inverse() * zs[j - 1]) * bracket(q * zi * zs[j - 1])
    if (N // 2 + i + 1) % 2:
        pref = -pref
    inner = psi_vector(N - 2, zs[:i - 1] + zs[i + 1:], s, beta)
    rhs = inner.insert_singlet(i).scale(pref)
    ok = lhs == rhs
    return {"property": "reduction", "N": N, "i": i, "pass": ok,
            "failures": [] if ok else [{"relation": "reduction", "i": i}]}


def check_Z_properties(N: int, trials: int = 20, seed: int = 42,
                       interp_trials: int = 2) -> dict:
    """All stated properties of the generalized sum for one chain size.

    Covers: symmetry under adjacent swaps, the sign flip under w -> -w, the
    inversion identity, the forced zeros at +-q^{1/2} (and +-1/q for odd size),
    the centred degree-width bound by interpolation, the rescaled sum being an
    even inversion-symmetric polynomial of width at most 8(n-1), and the two
    reduction relations.  A trial that meets a degenerate point is counted in
    "skipped"; the interpolation subchecks run on the first interp_trials
    trials that were not skipped, and the check fails if every trial was.  A
    request that would check nothing (N < 2, or no trials or interpolation
    trials) is refused.
    """
    if N < 2 or trials < 1 or interp_trials < 1:
        raise UsageError("need N >= 2, trials >= 1 and interp_trials >= 1")
    n = N // 2
    rng = ExactSampler(seed)
    sub: dict[str, int] = {}
    fails: list = []
    ran = 0

    def record(name: str, ok: bool, info=None):
        sub[name] = sub.get(name, 0) + 1
        if not ok:
            fails.append({"property": name, "N": N, "info": info})

    for _ in range(trials):
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
                    record("symmetry", zs == z0, {"lhs": repr(zs), "rhs": repr(z0)})
            flipped = [-ws[0]] + ws[1:]
            zf = gen_sum_Z(N, flipped, s, beta)
            record("sign_flip", zf == -z0, {"lhs": repr(zf), "rhs": repr(-z0)})
            inverted = [ws[0].inverse()] + ws[1:]
            lhs = bracket(inv(s) * ws[0]) * gen_sum_Z(N, inverted, s, beta)
            rhs = bracket(inv(s) * ws[0].inverse()) * z0
            record("inversion", lhs == rhs, {"lhs": repr(lhs), "rhs": repr(rhs)})
        except DegeneratePointError:
            continue
        ran += 1

        if ran <= interp_trials:
            poly = gen_sum_Z_poly_in_w(N, ws, 1, s, beta)
            width = poly.degree_width("w")
            record("degree_width",
                   poly.is_centred("w") and (width == float("-inf")
                                             or width <= 2 * (2 * N - 3)),
                   {"width": str(width)})
            for z in (s, -s):
                record("zero_at_sqrt_q", not poly.eval_at({"w": z}))
            if N % 2:
                for z in (q.inverse(), -q.inverse()):
                    record("zero_at_inv_q", not poly.eval_at({"w": z}))

            # rescaled sum: even inversion-symmetric polynomial of width <= 8(n-1)
            ypoly = div_exact_univar(poly, y_divisor(N, [MultiLaurent.var("w")], s), "w")
            rng_y = ypoly.degree_range("w")
            record("y_even", all(e[0] % 2 == 0 for e in ypoly.terms))
            record("y_inversion",
                   all(ypoly.terms.get((-e[0],), 0) == c
                       for e, c in ypoly.terms.items()))
            record("y_width", rng_y is None
                   or (ypoly.is_centred("w") and rng_y[1] - rng_y[0] <= 8 * (n - 1)),
                   {"range": str(rng_y)})

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
                yrhs = yrhs * brace(s ** 3 * w) ** 2 * brace(s ** 3 * w.inverse()) ** 2
            yrhs = yrhs * rescaled_Y(N - 2, ws[1:], s, beta)
            record("reduction_half_turn", ylhs == yrhs,
                   {"lhs": repr(ylhs), "rhs": repr(yrhs)})

            if N >= 4 and n >= 2:
                poly2 = gen_sum_Z_poly_in_w(N, ws, 2, s, beta)
                w2 = q.inverse() * ws[0]
                zval2 = poly2.eval_at({"w": w2})
                ylhs2 = _rescale(N, zval2, [ws[0], w2] + ws[2:], s)
                f = _f_reduction(N, ws[0], s, beta)
                for w in ws[2:]:
                    f = f * (bracket(q * ws[0] * w) * bracket(q * ws[0] * w.inverse())
                             * bracket(q * q * w * ws[0].inverse())
                             * bracket(q * q * ws[0].inverse() * w.inverse())) ** 2
                yrhs2 = f * rescaled_Y(N - 4, ws[2:], s, beta)
                record("reduction_pair", ylhs2 == yrhs2,
                       {"lhs": repr(ylhs2), "rhs": repr(yrhs2)})

    if not ran:
        fails.append({"property": "no_trials_ran", "N": N, "info": {"skipped": trials}})
    return {"property": "z_properties", "N": N, "trials": trials, "skipped": trials - ran,
            "pass": not fails, "subchecks": sub, "failures": fails}


def _f_reduction(N: int, w, s, beta) -> GaussianRational:
    """The elementary prefactor of the pair reduction relation."""
    q = s * s
    f = (-(bracket(q * q) ** 2) * brace(s * w) * brace(s ** 3 * inv(w))
         * bracket(beta * w) * bracket(beta * q * inv(w)) * inv(brace(s)) ** 2)
    if N % 2 == 0:
        return f * bracket(w) * bracket(q * inv(w))
    return f * bracket(q * w) * bracket(q * q * inv(w))
