import json
import pathlib
from fractions import Fraction
from itertools import combinations, count, groupby, islice
from operator import itemgetter

import pytest

from xtl.contour import psi_components, sum_components
from xtl.exact import (DegeneratePointError, DomainError, GaussianRational as G,
                       MultiLaurent, UsageError, bracket, brace, format_scalar, inv)
from xtl.operators import SpinVector, r_check_exchange
from xtl.qkz import (check_exchange_and_reflection, check_exchange_sweep, check_psi_reduction,
                     check_reduction_sweep, check_Z_properties, gen_sum_Z,
                     gen_sum_Z_poly_in_w, psi_vector, psi_vector_homogeneous, psi_vector_poly_in_z,
                     rescaled_Y, y_divisor)
from xtl.sampling import ExactSampler, half_sites, z_point_degenerate

# fixed parameters; every test draws its points from a sampler of its own, so
# a test's point does not depend on which tests ran before it
_PARAMS = ExactSampler(77)
S = _PARAMS.s_value()
BETA = _PARAMS.beta_value()
Q = S * S
I = G(0, 1)


def rescale_factor(N):
    """The homogeneous-limit normalization relating the two component families."""
    n, npr = N // 2, (N + 1) // 2
    f = inv(bracket(BETA)) ** n * inv(bracket(Q)) ** (n * (n - 1) + npr * (npr - 1))
    return -f if (npr * (npr - 1) // 2) % 2 else f


def induced_xtau():
    return -bracket(BETA * Q) * inv(bracket(BETA)), -brace(Q)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_two_site_components():
    z1, z2 = ExactSampler(7701).z_point(2, S)
    v = psi_vector(2, (z1, z2), S, BETA)
    assert v.amps.get((1,), 0) == bracket(BETA * z1)
    assert v.amps.get((2,), 0) == -bracket(Q * BETA * z2)


def test_three_site_components():
    zs = ExactSampler(7702).z_point(3, S)
    z1, z2, z3 = zs
    v = psi_vector(3, zs, S, BETA)
    assert v.amps.get((1,), 0) == (bracket(BETA * z1) * bracket(Q * z3 * inv(z2))
                                 * bracket(Q * Q * z2 * z3))
    assert v.amps.get((3,), 0) == (bracket(Q * BETA * z3) * bracket(Q * z2 * inv(z1))
                                 * bracket(Q * z1 * z2))
    num = (bracket(Q) * bracket(BETA * z1) * bracket(Q * z3 * inv(z2))
           * bracket(Q * Q * z2 * z3)
           - bracket(BETA * z2) * bracket(Q * z2 * inv(z1))
           * bracket(Q * z3 * inv(z1)) * bracket(Q * Q * z1 * z3))
    assert v.amps.get((2,), 0) == num * inv(bracket(z2 * inv(z1)))


def test_single_site_vector():
    v = psi_vector(1, (G(2),), S, BETA)
    assert v.amps.get((), 0) == 1


@pytest.mark.parametrize("N,zs", [(1, [G(2), G(3), G(5)]), (0, [G(7)]),
                                  (1, []), (2, [G(2)])])
def test_psi_vector_refuses_a_wrong_number_of_sites(N, zs):
    # also for N <= 1, whose vector is constant
    with pytest.raises(UsageError, match=f"need {N} site values"):
        psi_vector(N, zs, S, BETA)


def test_degenerate_point_raises():
    with pytest.raises(DegeneratePointError, match="site values collide"):
        psi_vector(2, (G(2), G(2)), S, BETA)
    with pytest.raises(DegeneratePointError, match="site ratio hits"):
        psi_vector(2, (G(2), Q * 2), S, BETA)
    # at q = 1 every diagonal [q z_p/z_p] = [q] vanishes, and [q] divides
    with pytest.raises(DegeneratePointError, match="site ratio hits"):
        psi_vector(2, (G(2), G(3)), G(1), BETA)
    with pytest.raises(DegeneratePointError, match="site product hits"):
        psi_vector(2, (G(2), inv(Q)), S, BETA)
    # an off-diagonal product z_1 z_2 = q^-2 is removable: [q^2 z_1 z_2] is
    # only multiplied by, so the residue sum is the curve's value there
    zs = (G(2), inv(2 * Q * Q))
    assert psi_vector(2, zs, S, BETA) == _curve_value(2, zs, 2, S, BETA)


def _curve_value(N, zs, k, s, beta) -> SpinVector:
    """The vector at zs read off its curve in z_k, psi_vector_poly_in_z."""
    polys = psi_vector_poly_in_z(N, zs, k, s, beta)
    return SpinVector.make(N, {a: p.eval_at({"z": zs[k - 1]}) for a, p in polys.items()})


@pytest.mark.parametrize("message,partner,removable", [
    ("site values collide", lambda z: -z, None),                 # z_k = -z_j
    ("site ratio hits", lambda z: Q * z, lambda z: z * inv(Q)),  # q z_j / z_k = 1, j < k
    ("site product hits", lambda z: I * inv(Q),                  # q^2 z_k^2 = -1
     lambda z: -inv(Q * Q * z)),                                 # q^2 z_j z_k = -1, j != k
], ids=["collision", "ratio", "product"])
@pytest.mark.parametrize("N", [3, 4, 5])
def test_each_guard_raises_among_generic_sites(N, message, partner, removable):
    # the last site value meets the first one (or itself) at a pole
    # collision; the others are a nondegenerate draw, so only that guard can
    # fire.  The guard's removable twin (q z_k / z_j = 1, an off-diagonal
    # product) does not raise: the tables only multiply by its bracket, and
    # the residue sum is the curve's value there
    zs = list(ExactSampler(7708 + N).z_point(N, S, BETA))
    zs[-1] = partner(zs[0])
    with pytest.raises(DegeneratePointError, match=message):
        psi_vector(N, zs, S, BETA)
    if removable is not None:
        zs[-1] = removable(zs[0])
        assert z_point_degenerate(zs, S)
        assert psi_vector(N, zs, S, BETA) == _curve_value(N, zs, N, S, BETA)


def _collisions(zs, s):
    """One site tuple per kind of pole collision, made from zs by replacing
    one value: z_k = +-z_j, z_k = +-q^{+-1} z_j, z_j z_k = +-q^-2 and
    z_j^2 = +-q^-2."""
    q = s * s
    qi, q2i = q.inverse(), (q * q).inverse()
    j, k = 0, len(zs) - 1
    partners = [zs[j], -zs[j], q * zs[j], -q * zs[j], qi * zs[j], -qi * zs[j],
                q2i * zs[j].inverse(), -q2i * zs[j].inverse(), qi, I * qi]
    return [zs[:k] + [z] for z in partners]


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_sampler_collision_set_contains_the_residue_tables_set(N):
    # z_point_degenerate is a superset of the points the residue tables
    # refuse: every refused point is one the sampler refuses, and at each
    # collision the tables accept (z_k = +-z_j/q, z_j z_k = +-q^-2 for
    # j < k) the residue sum is the value on the curve through it
    rng = ExactSampler(7790 + N)
    refused = removable = generic = 0
    for _ in range(3):
        s, beta = rng.s_value(), rng.beta_value()
        drawn = list(rng.z_point(N, s))
        for zs in [drawn, [rng.nonzero() for _ in range(N)]] + _collisions(drawn, s):
            sampled = z_point_degenerate(zs, s)
            try:
                v = psi_vector(N, zs, s, beta)
            except DegeneratePointError:
                assert sampled, (zs, s)
                refused += 1
                continue
            if sampled:
                assert v == _curve_value(N, zs, N, s, beta), (zs, s)
                removable += 1
            else:
                generic += 1
    # every collision made from a z_point draw is degenerate for the
    # sampler, six kinds for the tables too, and every z_point draw is
    # generic
    assert refused >= 3 * 6 and removable >= 3 * 4 and generic >= 3


def test_homogeneous_curves_refuse_negative_sizes():
    for N in (-1, -2):
        with pytest.raises(UsageError, match="N must be >= 0"):
            psi_vector_homogeneous(N, S, BETA)
        with pytest.raises(UsageError, match="N must be >= 0"):
            gen_sum_Z(N, [], S, BETA)


def _counting_psi(monkeypatch) -> list:
    from xtl import qkz
    real, calls = qkz.psi_vector, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(qkz, "psi_vector", counted)
    return calls


def test_curve_errors_other_than_degeneracy_propagate_at_the_first_abscissa(monkeypatch):
    calls = _counting_psi(monkeypatch)
    zs = list(ExactSampler(7795).z_point(3, S))
    with pytest.raises(DomainError, match="division by zero in Q\\(i\\)"):
        psi_vector_poly_in_z(3, zs, 1, S, 0)
    assert len(calls) == 1
    calls.clear()
    with pytest.raises(UsageError, match="need 3 site values"):
        psi_vector_poly_in_z(3, zs[:2], 1, S, BETA)
    assert len(calls) == 1


def test_curve_through_colliding_fixed_sites_runs_out_of_patience(monkeypatch):
    # z_3 = -z_2 collides at every abscissa of z_1: the sweep skips each one
    # and gives up after _SWEEP_PATIENCE in a row
    from xtl.exact import _SWEEP_PATIENCE
    calls = _counting_psi(monkeypatch)
    zs = list(ExactSampler(7796).z_point(3, S))
    zs[2] = -zs[1]
    with pytest.raises(DomainError, match="could not find enough nondegenerate"):
        psi_vector_poly_in_z(3, zs, 1, S, BETA)
    # no abscissa is ever used, so no square repeats: each skip is a residue
    # evaluation that raised
    assert len(calls) == _SWEEP_PATIENCE


# ---------------------------------------------------------------------------
# homogeneous limit against the coefficient-extraction oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_homogeneous_vector_matches_extraction_table(N):
    x, tau = induced_xtau()
    vec = psi_vector_homogeneous(N, S, BETA)
    table = psi_components(N)
    resc = rescale_factor(N)
    assert set(vec.amps) <= set(table.entries)
    for a, poly in table.entries.items():
        assert G(0) + poly.eval_at({"x": x, "tau": tau}) == resc * vec.amps.get(a, 0)


def test_homogeneous_curve_refuses_a_wrong_parity_rule_or_a_too_small_window(monkeypatch):
    # psi_vector_homogeneous's own curve, with one of its arguments bent
    from xtl import qkz
    real, seen = qkz._psi_along, []

    def bent(var, N, sites, s, beta, h, parity, spare, at=None):
        seen.append((h, sites(G(2)), [parity(a) for a in combinations(range(1, N + 1), N // 2)]))
        if mode == "parity":
            return real(var, N, sites, s, beta, h, lambda a: 1 - parity(a), spare, at)
        if mode == "window":
            # the widest component reaches lambda^+-9 at N = 4
            return real(var, N, sites, s, beta, h // 2, parity, spare, at)
        return real(var, N, sites, s, beta, h, parity, spare, at)

    monkeypatch.setattr(qkz, "_psi_along", bent)
    mode = None
    want = psi_vector_homogeneous(4, S, BETA)
    # z = (1, lambda, 1/lambda, lambda^2); e_k odd at k = 2, 3
    h, sites, parities = seen[0]
    assert h == 3 * 4 and sites == [1, 2, Fraction(1, 2), 4]
    assert parities == [1, 1, 0, 0, 1, 1]
    for mode in ("parity", "window"):
        with pytest.raises(DomainError, match="too small"):
            psi_vector_homogeneous(4, S, BETA)
    mode = None
    assert psi_vector_homogeneous(4, S, BETA) == want


GOLDEN = json.loads((pathlib.Path(__file__).parent / "data" / "psi_golden.json").read_text())


@pytest.mark.parametrize("point", GOLDEN["points"],
                         ids=lambda p: f"N{p['N']}-seed{p['seed']}")
def test_psi_vector_matches_golden_strings(point):
    # tests/data/make_psi_golden.py wrote these strings from an earlier,
    # independently written residue kernel and scalar type
    N = point["N"]
    rng = ExactSampler(point["seed"])
    s, beta = rng.s_value(), rng.beta_value()
    zs = rng.z_point(N, s)
    assert [format_scalar(v) for v in (s, beta) + zs] == \
        [point["s"], point["beta"]] + point["zs"]
    vec = psi_vector(N, zs, s, beta)
    got = {",".join(map(str, k)): format_scalar(v) for k, v in sorted(vec.amps.items())}
    assert got == point["amps"]


# ---------------------------------------------------------------------------
# the Q(i) residue kernel that the Gaussian-integer one replaced, kept as its
# reference
# ---------------------------------------------------------------------------

_ONE, _ZERO = G(1), G(0)


class _ReferenceTables:
    """Bracket tables for one site tuple, and the pole and pair factors of the
    residue sum built from them; raises DegeneratePointError if any
    denominator bracket vanishes."""

    def __init__(self, zs, s, beta):
        N = len(zs)
        self.N = N
        q = s * s
        # each bracket [v] = v - 1/v is formed from v and 1/v, both products
        # of the site values, their inverses and powers of q
        zinv = [inv(z) for z in zs]
        qi = inv(q)
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
                    if not v:
                        raise DegeneratePointError("site values collide: z_j = +-z_k")
                    ratio[j][k] = v
                v = qz[j] * zinv[k] - zs[k] * qzi[j]
                if not v:
                    raise DegeneratePointError("site ratio hits +-1/q")
                qratio[j][k] = v
                if k < j:
                    qprod[j][k], q2prod[j][k] = qprod[k][j], q2prod[k][j]
                    continue
                qprod[j][k] = qz[j] * zs[k] - qzi[j] * zinv[k]
                v = q2z[j] * zs[k] - q2zi[j] * zinv[k]
                if not v:
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
                    row[a] = num * inv(acc * d2[a])
            self.pole.append(row)


def _reference_prefactor(t, n):
    p = _ONE
    for i in range(t.N):
        for j in range(i + 1, t.N):
            p = p * t.qratio[j][i] * t.q2prod[i][j]
    return p * (-t.qratio[0][0]) ** n  # qratio[j][j] is [q]


def _reference_residue_sums(t, tuples):
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

    def finish(state: dict, a: int) :
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


def reference_amps(N, zs, s, beta):
    """psi_vector(N, zs, s, beta).amps by the GaussianRational residue walk."""
    t = _ReferenceTables(zs, s, beta)
    n = N // 2
    pref = _reference_prefactor(t, n)
    amps = {}
    for a, v in _reference_residue_sums(t, list(combinations(range(1, N + 1), n))).items():
        v = pref * v
        if v:
            amps[a] = v
    return amps


def _points_with_gaussian_sites(N, k, start):
    """Points (s, beta, zs) of size N, one from each of the seeds start,
    start + 1, ... whose draw has exactly k site values off the real line."""
    for seed in count(start):
        rng = ExactSampler(seed)
        s, beta = rng.s_value(), rng.beta_value()
        zs = rng.z_point(N, s, beta)
        if sum(not z.is_rational() for z in zs) == k:
            yield s, beta, zs


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("N", [2, 3, 4, 5, 6, 7])
def test_psi_vector_matches_the_gaussian_rational_reference(N, k):
    # n = N // 2 takes both parities, so the walk's sign (-1)^n is covered;
    # dict equality compares normalized triples, so an amplitude left
    # unreduced, or a zero kept, fails too
    for s, beta, zs in islice(_points_with_gaussian_sites(N, k, 7900 + 100 * N + 10 * k), 3):
        assert psi_vector(N, zs, s, beta).amps == reference_amps(N, zs, s, beta)


# ---------------------------------------------------------------------------
# exchange / reflection / reduction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_exchange_and_reflection(N):
    rng = ExactSampler(7710 + N)
    for trial in range(3):
        zs = rng.z_point(N, S)
        for i in range(1, N):
            rep = check_exchange_and_reflection(N, i, zs, S, BETA)
            assert rep["pass"], rep


def test_exchange_negative_control():
    zs = ExactSampler(7703).z_point(3, S)
    base = psi_vector(3, zs, S, BETA)
    amps = dict(base.amps)
    amps[(1,)] = base.amps.get((1,), 0) + 1
    perturbed = SpinVector.make(3, amps)
    swapped = [zs[1], zs[0], zs[2]]
    lhs = perturbed.apply(r_check_exchange(zs[0] * zs[1].inverse(), S), 1, 2)
    assert lhs != psi_vector(3, swapped, S, BETA)


# ---------------------------------------------------------------------------
# the memo of psi_vector
# ---------------------------------------------------------------------------

# a real point given as ints and Fractions
_REAL_POINT = ([2, Fraction(-3, 5), Fraction(7, 4)], Fraction(3, 2), Fraction(5, 7))


def test_changing_a_returned_vector_leaves_the_memo_intact():
    zs = ExactSampler(7730).z_point(4, S)
    first = psi_vector(4, zs, S, BETA)
    want = dict(first.amps)
    first.amps.clear()
    again = psi_vector(4, zs, S, BETA)
    assert again.amps == want and again.amps is not first.amps


def test_value_equal_points_share_one_memo_entry():
    from xtl import qkz
    zs, s, beta = _REAL_POINT
    exact = psi_vector(3, zs, s, beta)
    hits = qkz._psi_amps.cache_info().hits
    gauss = psi_vector(3, [G(z) for z in zs], G(s), G(beta))
    negated = psi_vector(3, zs, -s, beta)   # the vector depends on s through q
    assert qkz._psi_amps.cache_info().hits == hits + 2
    assert exact == gauss == negated


@pytest.mark.parametrize("slot", [0, 1, 2])
def test_a_float_is_refused_after_the_equal_exact_point_is_memoized(slot):
    # 1.5 == Fraction(3, 2) and their hashes agree, so only a key of cleared
    # values keeps a float out of the memo
    psi_vector(3, *_REAL_POINT)
    args = list(_REAL_POINT)
    args[slot] = [float(args[0][0]), *args[0][1:]] if slot == 0 else float(args[slot])
    with pytest.raises(UsageError, match="not an exact scalar"):
        psi_vector(3, *args)


def test_a_degenerate_point_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(DegeneratePointError, match="site values collide"):
            psi_vector(3, (G(2), G(2), G(5)), S, BETA)


def test_an_exchange_sweep_builds_each_vector_of_a_point_once(monkeypatch):
    # the base and reflected vectors serve every i of a point: N + 1 residue
    # sums a point, not 3(N - 1)
    from xtl import qkz
    built = []

    class Counted(qkz._ResidueTables):
        def __init__(self, *args):
            built.append(len(args[0]))
            super().__init__(*args)

    monkeypatch.setattr(qkz, "_ResidueTables", Counted)
    assert check_exchange_sweep(4, trials=1, seed=42).passed
    assert sorted(built) == [2] * 3 + [3] * 4 + [4] * 5


def test_a_fault_below_the_memo_fails_the_exchange_at_every_i(monkeypatch):
    # R_{i,i+1} mixes components whose position sums differ by one, so
    # doubling those of odd sum breaks the exchange at every i, also at
    # i >= 2, where the base and reflected vectors are memo hits (doubling
    # only the last component, (3, 4), breaks it at i = 2 alone)
    from xtl import qkz
    real = qkz._residue_sums

    def doubled_odd(t, tuples):
        return {a: (2 * x, 2 * y) if sum(a) % 2 else (x, y)
                for a, (x, y) in real(t, tuples).items()}

    monkeypatch.setattr(qkz, "_residue_sums", doubled_odd)
    zs = ExactSampler(7731).z_point(4, S)
    fails = [check_exchange_and_reflection(4, i, zs, S, BETA)["failures"] for i in (1, 2, 3)]
    assert fails == [[{"relation": "exchange", "i": i}] for i in (1, 2, 3)]
    assert qkz._psi_amps.cache_info().hits == 4


@pytest.mark.parametrize("N,i", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3),
                                 (5, 2), (5, 4), (6, 1), (6, 3), (6, 5)])
def test_reduction(N, i):
    zs = ExactSampler(7800 + 10 * N + i).z_point(N, S)
    rep = check_psi_reduction(N, i, zs, S, BETA)
    assert rep["pass"], rep


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_reduction_point_is_read_directly_and_equals_the_curve(monkeypatch, N):
    # at z_{i+1} = z_i/q the removable bracket [q z_{i+1}/z_i] vanishes, so
    # where the tables accept the point the residue sum there is the value
    # of the curve in z_{i+1}, and the check reads it with one evaluation,
    # plus one for the N - 2 vector.  Where they refuse it (here z_1 = -1 at
    # N = 5) the check takes the curve.
    rng = ExactSampler(7830 + N)
    s, beta = rng.s_value(), rng.beta_value()
    zs = list(rng.z_point(N, s, beta))
    q = s * s
    calls = _counting_psi(monkeypatch)
    direct = 0
    for i in range(1, N):
        pt = list(zs)
        pt[i] = zs[i - 1] * inv(q)
        try:
            v = psi_vector(N, pt, s, beta)
        except DegeneratePointError:
            v = None
        calls.clear()
        assert check_psi_reduction(N, i, zs, s, beta)["pass"], i
        if v is None:
            # the refused point, N + 2 abscissae or more, the N - 2 vector
            assert len(calls) >= N + 4 and calls[0][1] == pt, i
            continue
        direct += 1
        assert [len(c[1]) for c in calls] == [N, N - 2], i
        assert v == _curve_value(N, pt, i + 1, s, beta), i
    assert direct >= max(1, N - 2)


@pytest.mark.parametrize("N,i,forced", [
    (3, 1, lambda zs: G(1)), (4, 2, lambda zs: G(1)), (5, 3, lambda zs: -G(1)),
    (3, 2, lambda zs: Q * Q * zs[0]), (4, 3, lambda zs: Q * Q * zs[0]),
    (5, 2, lambda zs: -Q * Q * zs[0]),
], ids=["3-1-unit", "4-2-unit", "5-3-unit", "3-2-q2", "4-3-q2", "5-2-q2"])
def test_reduction_at_a_pole_of_the_denominator_takes_the_curve(monkeypatch, N, i, forced):
    # z_i^2 = 1 makes [q^2 z_{i+1}^2] vanish at z_{i+1} = z_i/q, and
    # z_i = +-q^2 z_1 makes [q z_1/z_{i+1}] vanish: the tables refuse the
    # point, so the check reads it off the curve in z_{i+1}
    from xtl import qkz
    zs = list(ExactSampler(7840 + 10 * N + i).z_point(N, S, BETA))
    zs[i - 1] = forced(zs)
    pt = list(zs)
    pt[i] = zs[i - 1] * inv(Q)
    with pytest.raises(DegeneratePointError):
        psi_vector(N, pt, S, BETA)
    real, curves = qkz.psi_vector_poly_in_z, []
    monkeypatch.setattr(qkz, "psi_vector_poly_in_z",
                        lambda *a: curves.append(a[2]) or real(*a))
    rep = check_psi_reduction(N, i, zs, S, BETA)
    assert rep["pass"], rep
    assert curves == [i + 1]


def test_reduction_two_site_closed_form():
    # the smallest case degenerates to a singlet with an elementary prefactor
    zs = ExactSampler(7704).z_point(2, S)
    polys = psi_vector_poly_in_z(2, zs, 2, S, BETA)
    special = zs[0] * Q.inverse()
    lhs = {k: G(0) + p.eval_at({"z": special}) for k, p in polys.items()}
    assert lhs[(1,)] == bracket(BETA * zs[0])
    assert lhs[(2,)] == -bracket(BETA * zs[0])


# ---------------------------------------------------------------------------
# Laurent structure of the components
# ---------------------------------------------------------------------------

_FLIP = ((1, 0), (0, -1))   # -1 on a down spin


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_sign_rule_under_negating_one_site_value(N):
    # psi_a(.., -z_k, ..) = (-1)^[k in a] psi_a(.., z_k, ..), the rule the
    # interpolation in z_k^2 rests on
    rng = ExactSampler(7740 + N)
    s, beta = rng.s_value(), rng.beta_value()
    zs = rng.z_point(N, s, beta)
    base = psi_vector(N, zs, s, beta)
    for k in range(1, N + 1):
        flipped = list(zs)
        flipped[k - 1] = -flipped[k - 1]
        assert psi_vector(N, flipped, s, beta) == base.apply(_FLIP, k), k


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_sign_rule_on_the_homogeneous_curve(N):
    # z_k = lambda^(k-1) at -lambda negates z_k for even k
    rng = ExactSampler(7750 + N)
    s, beta = rng.s_value(), rng.beta_value()
    lam = G(3, 2)
    lhs = psi_vector(N, [(-lam) ** k for k in range(N)], s, beta)
    rhs = psi_vector(N, [lam ** k for k in range(N)], s, beta)
    for k in range(2, N + 1, 2):
        rhs = rhs.apply(_FLIP, k)
    assert lhs == rhs


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_interpolation_in_z_squared_costs_N_plus_2_evaluations(monkeypatch, N):
    # N abscissae fit the polynomials in z_i^2 and two more cross-validate;
    # the full window in z_i took 2N + 1
    calls = _counting_psi(monkeypatch)
    rng = ExactSampler(7760 + N)
    s, beta = rng.s_value(), rng.beta_value()
    psi_vector_poly_in_z(N, rng.z_point(N, s, beta), 1, s, beta)
    assert len(calls) == N + 2


@pytest.mark.parametrize("N", [3, 4, 5])
def test_wrong_parity_term_fails_the_spare_pairs(monkeypatch, N):
    # negative control for the sign rule: one component gains z_k^2, inside
    # the window in z_k but of the wrong parity
    from xtl import qkz
    real = qkz.psi_vector
    k = 2

    def perturbed(n, zs, s, beta):
        vec = real(n, zs, s, beta)
        if n != N:
            return vec
        amps = dict(vec.amps)
        a = min(key for key in amps if k in key)
        amps[a] = amps[a] + zs[k - 1] ** 2
        return SpinVector.make(n, amps)

    monkeypatch.setattr(qkz, "psi_vector", perturbed)
    zs = ExactSampler(7770 + N).z_point(N, S, BETA)
    with pytest.raises(DomainError):
        psi_vector_poly_in_z(N, zs, k, S, BETA)
    # the reduction check reads z_k = z_{k-1}/q directly, not off the curve,
    # so the extra term shows as a failed relation
    assert check_psi_reduction(N, k - 1, zs, S, BETA)["pass"] is False


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_components_are_centred_with_stated_widths(N):
    zs = ExactSampler(7720 + N).z_point(N, S)
    n, npr = N // 2, (N + 1) // 2
    i = 1 + (N % 2)
    polys = psi_vector_poly_in_z(N, zs, i, S, BETA)
    for a, poly in polys.items():
        bound = 2 * (2 * n - 1) if i in a else 4 * (npr - 1)
        r = poly.degree_range("z")
        assert r is None or (r[0] == -r[1] and r[1] - r[0] <= bound), (a, r, bound)


# ---------------------------------------------------------------------------
# the generalized component sum
# ---------------------------------------------------------------------------

def test_gen_sum_closed_forms():
    rng = ExactSampler(7705)
    w1 = rng.w_point(2, S)[0]
    assert gen_sum_Z(2, [w1], S, BETA) == bracket(inv(S) * w1) * brace(S * BETA)
    w1 = rng.w_point(3, S)[0]
    got = gen_sum_Z(3, [w1], S, BETA)
    want = (bracket(inv(S) * w1) * bracket(Q * w1) * bracket(Q * inv(w1))
            * brace(S * BETA) * brace(S ** 3) * inv(brace(S)))
    assert got == want
    assert gen_sum_Z(0, [], S, BETA) == 1
    assert gen_sum_Z(1, [], S, BETA) == 1


@pytest.mark.parametrize("N,ws", [(1, [G(4), G(5)]), (0, [G(7)]), (3, [])])
def test_gen_sum_refuses_a_wrong_number_of_w_values(N, ws):
    # also for N <= 1, whose sum is 1
    with pytest.raises(UsageError, match=f"need {N // 2} w values"):
        gen_sum_Z(N, ws, S, BETA)


def test_gen_sum_homogeneous_matches_sum_polynomial():
    x, tau = induced_xtau()
    for N in (2, 3, 4, 5, 6, 7):
        n = N // 2
        z = gen_sum_Z(N, [G(1)] * n, S, BETA)
        lhs = G(0) + sum_components(N).eval_at({"x": x, "tau": tau})
        assert lhs == rescale_factor(N) * z, N


def test_chi_factorizes_at_unit_argument():
    # at w = 1 every pairing coefficient is 1, so the sum is the plain total
    N = 4
    vec = psi_vector_homogeneous(N, S, BETA)
    total = G(0)
    for v in vec.amps.values():
        total = total + v
    assert gen_sum_Z(N, [G(1)] * 2, S, BETA) == total


def test_gen_sum_zeros():
    rng = ExactSampler(7706)
    ws = list(rng.w_point(4, S))
    poly = gen_sum_Z_poly_in_w(4, ws, 1, S, BETA)
    assert not poly.eval_at({"w": S}) and not poly.eval_at({"w": -S})
    ws3 = list(rng.w_point(3, S))
    poly3 = gen_sum_Z_poly_in_w(3, ws3, 1, S, BETA)
    for z in (S, -S, Q.inverse(), -Q.inverse()):
        assert not poly3.eval_at({"w": z})


def test_rescaled_sum_constant_for_two_sites():
    rng = ExactSampler(7707)
    for _ in range(3):
        w1 = rng.w_point(2, S)[0]
        assert rescaled_Y(2, [w1], S, BETA) == brace(S * BETA)
    assert rescaled_Y(0, [], S, BETA) == 1
    assert rescaled_Y(1, [], S, BETA) == 1


def test_rescaled_sum_zero_divisor_raises():
    with pytest.raises(DomainError):
        rescaled_Y(2, [S], S, BETA)  # [w/q^{1/2}] vanishes at w = q^{1/2}


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_divisor_at_a_symbolic_w_evaluates_to_the_scalar_divisor(N):
    # check_Z_properties divides the interpolated sum by the symbolic divisor
    rng = ExactSampler(7730 + N)
    ws = list(rng.w_point(N, S))
    poly = y_divisor(N, [MultiLaurent.var("w")] + ws[1:], S)
    assert G(0) + poly.eval_at({"w": ws[0]}) == y_divisor(N, ws, S)


def _w_point_squared_tests(rng, N, s):
    """w_point with the squared-value tests of the divisors' zero sets that
    the divisors replaced."""
    n, q = N // 2, s * s
    while True:
        ws = tuple(rng.nonzero() for _ in range(n))
        if z_point_degenerate(half_sites(ws, N % 2), s):
            continue
        if any((w * s.inverse()) ** 2 == 1 or (w * w) ** 2 == (q * q) ** 2
               or N % 2 and ((q * w) ** 2 == 1 or (q * w.inverse()) ** 2 == 1)
               for w in ws):
            continue
        return ws


def test_w_point_draws_are_unchanged_by_the_divisor_helpers():
    for seed in range(6):
        s = ExactSampler(100 + seed).s_value()
        for N in range(2, 8):
            ref, rng = ExactSampler(seed), ExactSampler(seed)
            for _ in range(20):
                assert rng.w_point(N, s) == _w_point_squared_tests(ref, N, s), (seed, N)


@pytest.mark.parametrize("N,w", [(2, S), (2, -S), (2, Q), (2, -I * Q), (3, S),
                                 (3, Q), (3, -Q), (3, Q.inverse()), (3, -Q.inverse())])
def test_w_point_rejects_each_divisor_zero(N, w):
    # each zero of y_divisor or yy_divisor is also a pole collision of the
    # half-specialized sites, so the degeneracy test rejects it first
    from xtl.sixvertex import yy_divisor
    assert not y_divisor(N, [w], S) or not yy_divisor([w], S)
    assert z_point_degenerate(half_sites([w], N % 2), S)


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_z_property_suite(N):
    rep = check_Z_properties(N, trials=4, seed=5)
    assert rep.passed, rep.failures[:2]
    expected = {"sign_flip", "inversion", "degree_width", "zero_at_sqrt_q", "y_polynomial",
                "y_even", "y_inversion", "y_width", "reduction_half_turn"}
    if N >= 4:
        expected |= {"symmetry", "reduction_pair"}
    if N % 2:
        expected |= {"zero_at_inv_q"}
    assert expected <= set(rep.subchecks), rep.subchecks


@pytest.mark.parametrize("N,trials", [(1, 4), (0, 4), (3, 0), (3, -1)])
def test_z_properties_refuse_requests_that_check_nothing(N, trials):
    # N < 2 has no w, and no trials checks nothing
    with pytest.raises(UsageError):
        check_Z_properties(N, trials=trials, seed=5)


@pytest.mark.parametrize("N", [3, 5])
def test_z_properties_fail_without_the_odd_size_divisor(monkeypatch, N):
    # negative control for the one divisor: the even-size product at odd size
    # leaves two factors in the rescaled sum
    from xtl import qkz
    real = qkz.y_divisor
    monkeypatch.setattr(qkz, "y_divisor", lambda N, ws, s: real(0, ws, s))
    rep = check_Z_properties(N, trials=2, seed=3)
    failed = {f["property"] for f in rep.failures}
    assert {"y_width", "reduction_half_turn"} <= failed, failed


def test_z_properties_report_a_sum_the_divisor_leaves_a_remainder_of(monkeypatch):
    # a fault in the vector breaks the forced zeros, so the rescaling divisor
    # no longer divides the sum: that is a failed subcheck, not an exception
    from xtl import qkz
    real = qkz.psi_vector

    def doubled_last(N, zs, s, beta):
        amps = dict(real(N, zs, s, beta).amps)
        amps[max(amps)] = amps[max(amps)] * 2
        return SpinVector(N, amps)

    monkeypatch.setattr(qkz, "psi_vector", doubled_last)
    rep = check_Z_properties(3, trials=1, seed=42)
    assert not rep.passed and rep.subchecks["y_polynomial"] == 1
    assert {"property": "y_polynomial"} in rep.failures
    assert "y_even" not in rep.subchecks


def _gen_sum_raising(monkeypatch, failing_calls):
    from xtl import qkz
    real, calls = qkz.gen_sum_Z, []

    def gen_sum(*args):
        calls.append(args)
        if len(calls) in failing_calls:
            raise DegeneratePointError("forced degenerate point")
        return real(*args)

    monkeypatch.setattr(qkz, "gen_sum_Z", gen_sum)


def test_z_properties_count_a_skipped_trial(monkeypatch):
    # the first trial meets a degenerate point: it is counted, and the
    # interpolation subchecks run on the next trial instead
    _gen_sum_raising(monkeypatch, {1})
    rep = check_Z_properties(3, trials=2, seed=5)
    assert rep.passed, rep.failures[:2]
    assert rep.skipped == 1
    assert rep.subchecks["sign_flip"] == 1
    assert rep.subchecks["degree_width"] == 1


def test_z_properties_fail_when_every_trial_is_skipped(monkeypatch):
    _gen_sum_raising(monkeypatch, range(1, 10 ** 6))
    rep = check_Z_properties(3, trials=3, seed=5)
    assert not rep.passed and rep.skipped == 3 and rep.subchecks == {}
    assert [f["property"] for f in rep.failures] == ["no_trials_ran"]


def test_report_shape_is_json_ready():
    import json
    rep = check_Z_properties(2, trials=2, seed=9)
    line = json.loads(rep.to_json_line())
    assert set(line) == {"statement", "params", "pass", "failures"}
    assert line["statement"] == "generalized_sum_properties_N2" and line["pass"] is True
    assert line["params"] == {"N": 2, "trials": 2, "seed": 9} and rep.skipped == 0


@pytest.mark.parametrize("N", [3, 4])
def test_interpolation_windows_are_attained(N):
    # the windows are the degree bounds, not guesses: some component reaches
    # exponent +-(N-1) in z_1, both ends of the window [-(N//2), (N-1)//2] of
    # the polynomials in z_1^2 are reached, and the sum reaches +-(2N-3) in w_1
    rng = ExactSampler(N)
    s, beta = rng.s_value(), rng.beta_value()
    polys = psi_vector_poly_in_z(N, rng.z_point(N, s, beta), 1, s, beta)
    assert max(max(-lo, hi) for lo, hi in
               (p.degree_range("z") for p in polys.values() if p)) == N - 1
    halves = {(e - (1 in a)) // 2 for a, p in polys.items() for (e,) in p.terms}
    assert (min(halves), max(halves)) == (-(N // 2), (N - 1) // 2)
    ws = list(rng.w_point(N, s))
    assert gen_sum_Z_poly_in_w(N, ws, 1, s, beta).degree_range("w") == (3 - 2 * N, 2 * N - 3)


# ---------------------------------------------------------------------------
# the exchange and reduction sweeps
# ---------------------------------------------------------------------------

GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "cli_golden.txt"


@pytest.mark.parametrize("sweep,check,seed", [
    (check_exchange_sweep, "check_exchange_and_reflection", 42),
    (check_reduction_sweep, "check_psi_reduction", 43)])
def test_sweep_line_is_the_cli_line(monkeypatch, sweep, check, seed):
    # `xtl verify --suite exchange|reduction --max-N 4 --trials 2` prints this
    # line (reduction runs at seed + 1); the sweep checks each of 2 trials at
    # every i < N for N = 2..4
    from xtl import qkz
    real, calls = getattr(qkz, check), []
    monkeypatch.setattr(qkz, check, lambda *a: calls.append(a[:2]) or real(*a))
    rep = sweep(4, trials=2, seed=seed)
    assert rep.to_json_line() in GOLDEN.read_text().splitlines()
    assert calls == [(N, i) for N in (2, 3, 4) for _ in range(2) for i in range(1, N)]


@pytest.mark.parametrize("sweep", [check_exchange_sweep, check_reduction_sweep])
@pytest.mark.parametrize("max_n,trials", [(1, 2), (0, 2), (3, 0), (3, -1)])
def test_sweeps_refuse_requests_that_check_nothing(sweep, max_n, trials):
    with pytest.raises(UsageError):
        sweep(max_n, trials=trials, seed=5)


def test_reduction_refuses_an_inexact_value_in_the_slot_it_replaces():
    # check_psi_reduction(N, 1, ...) replaces z_2 by z_1/q (or interpolates
    # in z_2), so it never reads zs[1]: the value must still be exact
    zs = list(ExactSampler(7705).z_point(3, S))
    zs[1] = 0.5
    with pytest.raises(UsageError, match="not an exact scalar"):
        check_psi_reduction(3, 1, zs, S, BETA)
    with pytest.raises(UsageError, match="not an exact scalar"):
        psi_vector_poly_in_z(3, zs, 2, S, BETA)


def test_sum_in_w_refuses_an_inexact_value_in_the_slot_it_replaces():
    ws = list(ExactSampler(7708).w_point(4, S))
    with pytest.raises(UsageError, match="not an exact scalar"):
        gen_sum_Z_poly_in_w(4, [0.25, ws[1]], 1, S, BETA)
