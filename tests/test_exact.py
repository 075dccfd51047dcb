import json
import random
from collections.abc import Mapping
from fractions import Fraction
from itertools import islice
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from xtl.exact import (
    DegeneratePointError,
    DomainError,
    GaussianRational,
    MultiLaurent,
    UsageError,
    abscissa_sweep,
    bracket,
    brace,
    div_exact_univar,
    format_scalar,
    from_gaussian_ints,
    gaussian_ints,
    interpolate_along,
    interpolate_laurent,
    inv,
    parse_scalar,
)

I = GaussianRational(0, 1)
X = MultiLaurent.var("x")
TAU = MultiLaurent.var("tau")


# ---------------------------------------------------------------------------
# GaussianRational
# ---------------------------------------------------------------------------

def test_gaussian_basic_ops():
    a = GaussianRational(Fraction(1, 2), Fraction(3, 4))
    b = GaussianRational(2, -1)
    assert a + b == GaussianRational(Fraction(5, 2), Fraction(-1, 4))
    assert a * b == GaussianRational(Fraction(7, 4), 1)
    assert (a / b) * b == a
    assert a - a == 0
    assert (I * I) == -1
    assert I ** 4 == 1
    assert GaussianRational(3) == 3 and GaussianRational(3) == Fraction(3)


def test_gaussian_inverse_and_division_by_zero():
    assert GaussianRational(0, 2).inverse() == GaussianRational(0, Fraction(-1, 2))
    with pytest.raises(DomainError):
        GaussianRational(0).inverse()


def test_bracket_brace_examples():
    assert bracket(1) == 0
    assert brace(1) == 2
    # i - 1/i = i + i = 2i, checked against the scalar oracle
    assert bracket(I) == I - I.inverse() == GaussianRational(0, 2)
    assert bracket(Fraction(2)) == Fraction(3, 2)
    with pytest.raises(DomainError):
        bracket(0)


def test_scalar_strings_roundtrip():
    vals = [0, 5, -3, Fraction(1, 2), Fraction(-7, 3),
            GaussianRational(Fraction(1, 2), Fraction(3, 4)),
            GaussianRational(0, -1), GaussianRational(2, 5)]
    for v in vals:
        s = format_scalar(v)
        w = parse_scalar(s)
        assert GaussianRational(0) + w == GaussianRational(0) + v, (s, v)
    assert format_scalar(GaussianRational(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4*i"


# GaussianRational against a reference pair of Fractions

small = st.integers(-12, 12)
fracs = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30) | small,
                  st.integers(1, 10 ** 20) | st.integers(1, 12))
pairs = st.tuples(fracs | small, fracs | small)


def model_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def model_inv(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def matches(g, x):
    """g has the value x and is in normal form: d > 0 and gcd(a, b, d) = 1."""
    return (isinstance(g, GaussianRational) and (g.re, g.im) == x
            and g._d > 0 and gcd(g._a, g._b, g._d) == 1)


@given(pairs, pairs, st.integers(-4, -1))
@settings(max_examples=300, deadline=None)
def test_gaussian_matches_fraction_pair_model(x, y, k):
    gx, gy = GaussianRational(*x), GaussianRational(*y)
    x, y = tuple(map(Fraction, x)), tuple(map(Fraction, y))
    assert matches(gx, x) and matches(gy, y)
    assert matches(gx + gy, (x[0] + y[0], x[1] + y[1]))
    assert matches(gx - gy, (x[0] - y[0], x[1] - y[1]))
    assert matches(-gx, (-x[0], -x[1]))
    assert matches(gx * gy, model_mul(x, y))
    assert (gx == gy) == (x == y)
    assert (gx == GaussianRational(*x)) and hash(gx) == hash(GaussianRational(*x))
    assert gx.is_rational() == (x[1] == 0)
    assert bool(gx) == (x != (0, 0))
    if y != (0, 0):
        assert matches(gy.inverse(), model_inv(y))
        assert matches(gx / gy, model_mul(x, model_inv(y)))
    else:
        with pytest.raises(DomainError):
            gy.inverse()
    if x != (0, 0):
        ref = (Fraction(1), Fraction(0))
        for _ in range(-k):
            ref = model_mul(ref, model_inv(x))
        assert matches(gx ** k, ref)


@given(st.lists(pairs | fracs | small, max_size=6), st.integers(1, 10 ** 6))
@settings(max_examples=200, deadline=None)
def test_gaussian_ints_clear_and_restore(xs, k):
    vals = [GaussianRational(*x) if isinstance(x, tuple) else x for x in xs]
    re, im, d = gaussian_ints(vals)
    want = [(Fraction(x[0]), Fraction(x[1])) if isinstance(x, tuple) else (Fraction(x), 0)
            for x in xs]
    # d is the least common denominator, and a common factor k cancels
    assert d == lcm(*(Fraction(w).denominator for pair in want for w in pair))
    for back in (from_gaussian_ints(re, im, d),
                 from_gaussian_ints([a * k for a in re], [b * k for b in im], d * k)):
        assert all(matches(g, w) for g, w in zip(back, want)) and len(back) == len(want)


@pytest.mark.parametrize("re,im", [(0.1, 0), ("3/4", 0), (0, 0.5), (Fraction(1, 2), "1"),
                                   (GaussianRational(1), 0), (None, 0)])
def test_gaussian_refuses_parts_that_are_not_int_or_fraction(re, im):
    # a float would be read as its binary value and a string parsed
    with pytest.raises(UsageError):
        GaussianRational(re, im)


def test_gaussian_ints_refuse_what_is_not_an_exact_scalar():
    with pytest.raises(UsageError):
        gaussian_ints([1, MultiLaurent.var("z")])
    with pytest.raises(DomainError):
        from_gaussian_ints([1], [0], 0)


@given(pairs, fracs | small)
@settings(max_examples=300, deadline=None)
def test_gaussian_mixed_operands_match_model(x, c):
    gx = GaussianRational(*x)
    x, f = tuple(map(Fraction, x)), Fraction(c)
    assert matches(gx + c, (x[0] + f, x[1])) and matches(c + gx, (x[0] + f, x[1]))
    assert matches(gx - c, (x[0] - f, x[1])) and matches(c - gx, (f - x[0], -x[1]))
    assert matches(gx * c, (x[0] * f, x[1] * f)) and matches(c * gx, (x[0] * f, x[1] * f))
    if f:
        assert matches(gx / c, (x[0] / f, x[1] / f))
    if x != (0, 0):
        assert matches(c / gx, model_mul((f, Fraction(0)), model_inv(x)))
    assert (gx == c) == (x == (f, 0)) == (c == gx)


@given(fracs | small)
@settings(max_examples=200, deadline=None)
def test_gaussian_real_values_equal_and_hash_like_int_and_fraction(c):
    g = GaussianRational(c)
    assert g == c and g == Fraction(c) and g.is_rational()
    assert hash(g) == hash(c) == hash(Fraction(c))
    assert hash(GaussianRational(0) + c) == hash(c)
    assert {g: 1}.get(Fraction(c)) == 1


@given(pairs)
@settings(max_examples=200, deadline=None)
def test_gaussian_string_roundtrip(x):
    g = GaussianRational(*x)
    s = format_scalar(g)
    back = parse_scalar(s)
    assert back == g and format_scalar(back) == s
    assert isinstance(back, GaussianRational) == (not g.is_rational())


# ---------------------------------------------------------------------------
# MultiLaurent core
# ---------------------------------------------------------------------------

def test_poly_arith_examples():
    x = X
    xinv = MultiLaurent(("x",), {(-1,): 1})
    assert x * xinv == 1
    assert (1 + x) * (1 + TAU) == 1 + x + TAU + x * TAU
    assert not ((1 + x) - (1 + x))


def test_degree_range_examples():
    p = MultiLaurent(("x",), {(2,): 1, (-2,): 1})
    assert p.degree_range("x") == (-2, 2)
    assert MultiLaurent(("x",), {}).degree_range("x") is None
    assert (X + 1).degree_range("x") == (0, 1)
    with pytest.raises(UsageError):
        p.degree_range("y")


def test_eval_examples():
    assert (X + TAU).eval_at({"x": 1, "tau": 1}) == 2
    assert MultiLaurent(("x",), {(-1,): 1}).eval_at({"x": 2}) == Fraction(1, 2)
    # [q z] as a Laurent polynomial in z with q = 4 evaluates at z=2 to 8 - 1/8
    qz = MultiLaurent(("z",), {(1,): 4, (-1,): Fraction(-1, 4)})
    assert qz.eval_at({"z": 2}) == Fraction(63, 8)
    with pytest.raises(DomainError):
        MultiLaurent(("x",), {(-1,): 1}).eval_at({"x": 0})
    with pytest.raises(UsageError):
        (X + TAU).eval_at({"x": 1})


def test_variable_alignment():
    p = X + 1
    q = TAU + 1
    r = p + q
    assert r.vars == ("x", "tau")
    assert r == MultiLaurent(("x", "tau"), {(0, 0): 2, (1, 0): 1, (0, 1): 1})
    assert MultiLaurent.const(1, ("x",)) == MultiLaurent.const(1)


def test_json_schema_roundtrip_and_order():
    p = MultiLaurent(("x", "tau"), {(1, 0): 1, (0, 0): -2, (0, 2): Fraction(1, 2),
                                    (-1, 1): GaussianRational(0, 1)})
    obj = p.to_json()
    assert obj["vars"] == ["x", "tau"]
    es = [tuple(t["e"]) for t in obj["terms"]]
    assert es == sorted(es)
    q = MultiLaurent.from_json(json.loads(json.dumps(obj)))
    assert q == p


# ---------------------------------------------------------------------------
# ring laws on random values
# ---------------------------------------------------------------------------

coef = st.integers(-9, 9)
expo = st.integers(-3, 3)


@st.composite
def polys(draw, vars=("x", "tau")):
    n = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n):
        e = tuple(draw(expo) for _ in vars)
        terms[e] = draw(coef)
    return MultiLaurent(vars, terms)


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_canonical_form_add_sub(a, b):
    assert (a + b) - b == a


@given(polys(), polys(), polys())
@settings(max_examples=40, deadline=None)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@given(polys(), polys())
@settings(max_examples=40, deadline=None)
def test_eval_is_ring_homomorphism(a, b):
    pt = {"x": Fraction(3, 2), "tau": Fraction(-5, 7)}
    ga = GaussianRational(0)
    assert ga + (a * b).eval_at(pt) == (ga + a.eval_at(pt)) * (ga + b.eval_at(pt)) + 0
    assert ga + (a + b).eval_at(pt) == ga + a.eval_at(pt) + b.eval_at(pt)


@given(polys(), polys())
@settings(max_examples=40, deadline=None)
def test_degree_width_additive_under_mul(a, b):
    # both ends of the degree range add, so the width does too
    if not a or not b:
        return
    for v in ("x", "tau"):
        (la, ha), (lb, hb) = a.degree_range(v), b.degree_range(v)
        assert (a * b).degree_range(v) == (la + lb, ha + hb)


# ---------------------------------------------------------------------------
# interpolation and exact division
# ---------------------------------------------------------------------------

def test_interpolate_laurent_recovers():
    p = MultiLaurent(("w",), {(-2,): Fraction(3, 5), (0,): -1, (3,): 7})
    xs = [Fraction(k) for k in range(2, 8)]
    ys = [p.eval_at({"w": x}) for x in xs]
    q = interpolate_laurent("w", xs, ys, -2, 3)
    assert q == p
    # sanity at a fresh point
    assert q.eval_at({"w": Fraction(11, 3)}) == p.eval_at({"w": Fraction(11, 3)})


def test_interpolate_rejects_bad_input():
    with pytest.raises(UsageError):
        interpolate_laurent("w", [1, 2], [1, 1, 1], 0, 2)
    with pytest.raises(UsageError):
        interpolate_laurent("w", [1, 1, 2], [0, 0, 0], 0, 2)


def _line(p, xs):
    return ((x, p.eval_at({"w": x})) for x in xs)


def _evaluate(p):
    return lambda x: p.eval_at({"w": x})


def test_interpolate_along_recovers_and_checks_spare_points():
    p = MultiLaurent(("w",), {(-2,): Fraction(3, 5), (0,): -1, (3,): 7})
    assert interpolate_along("w", abscissa_sweep(_evaluate(p)), -2, 3, 2) == p
    # the window [-2, 2] misses w^3: both spare points disagree
    with pytest.raises(DomainError):
        interpolate_along("w", abscissa_sweep(_evaluate(p)), -2, 2, 2)


def test_interpolate_along_spare_zero_takes_exactly_the_window():
    p = MultiLaurent(("w",), {(-1,): 2, (1,): I})
    taken = []

    def samples():
        for k in range(2, 100):
            taken.append(k)
            yield k, p.eval_at({"w": k})

    assert interpolate_along("w", samples(), -1, 1, 0) == p
    assert taken == [2, 3, 4]
    # without spare points a too-small window goes unnoticed
    assert interpolate_along("w", samples(), 0, 1, 0) != p


def test_interpolate_along_mapping_missing_key_is_zero():
    p = MultiLaurent(("w",), {(0,): 1, (1,): 1})  # zero at w = -1
    xs = [GaussianRational(x) for x in (2, -1, 3, 4)]
    ys = [{"a": p.eval_at({"w": x}), "b": x} if x != -1 else {"b": x} for x in xs]
    out = interpolate_along("w", zip(xs, ys), 0, 1, 2)
    assert out == {"a": p, "b": MultiLaurent.var("w")}
    # a key seen only at a spare point interpolates to zero and fails the check
    ys[3] = dict(ys[3], c=1)
    with pytest.raises(DomainError):
        interpolate_along("w", zip(xs, ys), 0, 1, 2)


def test_interpolate_along_needs_enough_samples():
    with pytest.raises(UsageError):
        interpolate_along("w", [(2, 1), (3, 1)], 0, 1, 1)


# A test-only reference: the Newton divided-difference solve and the spare
# check by evaluation that the cached integer weights replaced.

def _newton_laurent(var, xs, ys, min_exp, max_exp):
    m = max_exp - min_exp + 1
    if len(xs) != m or len(ys) != m:
        raise UsageError(f"need exactly {m} sample points, got {len(xs)}")
    pts = list(xs)
    if len(set(pts)) != m:
        raise UsageError("interpolation abscissae must be distinct")
    shift = -min_exp
    dd = [y * (p ** shift if shift >= 0 else inv(p) ** -shift) for p, y in zip(pts, ys)]
    for j in range(1, m):
        for k in range(m - 1, j - 1, -1):
            dd[k] = (dd[k] - dd[k - 1]) * inv(pts[k] - pts[k - j])
    coeffs = [GaussianRational(0)] * m
    for j in range(m - 1, -1, -1):
        for k in range(m - 1, 0, -1):
            coeffs[k] = coeffs[k - 1] - coeffs[k] * pts[j]
        coeffs[0] = dd[j] - coeffs[0] * pts[j]
    return MultiLaurent((var,), {(k + min_exp,): c for k, c in enumerate(coeffs) if c != 0})


def _newton_along(var, samples, lo, hi, spare):
    m = hi - lo + 1
    pts = list(islice(samples, m + spare))
    xs = [x for x, _ in pts]
    scalar = not isinstance(pts[0][1], Mapping)
    ys = [{None: y} if scalar else y for _, y in pts]
    out = {}
    for key in dict.fromkeys(k for y in ys for k in y):
        vals = [y.get(key, 0) for y in ys]
        poly = _newton_laurent(var, xs[:m], vals[:m], lo, hi)
        for x, v in zip(xs[m:], vals[m:]):
            if poly.eval_at({var: x}) != v:
                raise DomainError(f"interpolation window [{lo}, {hi}] in {var} too small")
        out[key] = poly
    return out[None] if scalar else out


def _typed(result):
    """Terms with their coefficient types, so equal values of other types differ."""
    if isinstance(result, dict):
        return {k: _typed(p) for k, p in result.items()}
    return {e: (type(c), c) for e, c in result.terms.items()}


def _outcome(route, *args):
    try:
        return _typed(route(*args))
    except DomainError:
        return DomainError


def _random_laurent(rng, lo, hi):
    def part():
        return Fraction(rng.randint(-40, 40), rng.choice([1, 1, 2, 3, 7]))
    return MultiLaurent(("w",), {(e,): GaussianRational(part(), part())
                                 for e in range(lo, hi + 1) if rng.random() < 0.8})


def _random_abscissae(rng, k):
    xs = set()
    while len(xs) < k:
        x = Fraction(rng.randint(-30, 30), rng.randint(1, 6))
        if x:
            xs.add(x)
    xs = sorted(xs)
    rng.shuffle(xs)
    # the same values as int, Fraction and real GaussianRational
    kinds = (lambda x: x, GaussianRational, lambda x: int(x) if x.denominator == 1 else x)
    return [rng.choice(kinds)(x) for x in xs]


@pytest.mark.parametrize("lo,hi", [(-3, 2), (-1, 4), (0, 0), (0, 3), (0, 6)])
@pytest.mark.parametrize("spare", [0, 1, 2])
@pytest.mark.parametrize("seed", range(4))
def test_weights_equal_the_newton_reference(lo, hi, spare, seed):
    rng = random.Random(f"{lo} {hi} {spare} {seed}")
    m = hi - lo + 1
    xs = _random_abscissae(rng, m + spare)
    p = _random_laurent(rng, lo, hi)
    ys = [p.eval_at({"w": x}) for x in xs]
    assert _typed(interpolate_laurent("w", xs[:m], ys[:m], lo, hi)) == \
        _typed(_newton_laurent("w", xs[:m], ys[:m], lo, hi)) == _typed(p)
    # scalar samples, then mappings: a key missing at a pair where it
    # vanishes, a key seen only at a spare pair (zero there, then not), and a
    # key outside the window
    q = _random_laurent(rng, lo, hi)
    maps = [{"b": q.eval_at({"w": x})} for x in xs]
    if hi > lo:
        r = rng.randrange(m + spare)
        a = (MultiLaurent.var("w") - xs[r]) * _random_laurent(rng, lo, hi - 1)
        for k, x in enumerate(xs):
            if k != r:
                maps[k]["a"] = a.eval_at({"w": x})
    cases = [list(zip(xs, ys)), list(zip(xs, maps))]
    for extra in ([0], [1]) if spare else ():
        late = [dict(y) for y in maps]
        late[-1]["c"] = extra[0]
        cases.append(list(zip(xs, late)))
    wide = _random_laurent(rng, lo, hi) + MultiLaurent(("w",), {(hi + 1,): 3})
    cases.append([(x, dict(y, d=wide.eval_at({"w": x}))) for x, y in zip(xs, maps)])
    outcomes = [_outcome(interpolate_along, "w", iter(pairs), lo, hi, spare) for pairs in cases]
    assert outcomes == [_outcome(_newton_along, "w", iter(pairs), lo, hi, spare)
                        for pairs in cases]
    # every case but the key outside the window fits, and with spare pairs
    # the key seen only at a spare pair fits there only while it is zero
    assert [o is DomainError for o in outcomes] == \
        [False, False] + ([False, True] if spare else []) + [bool(spare)]


def _typed_value(v):
    return {k: (type(x), x) for k, x in v.items()} if isinstance(v, dict) else (type(v), v)


@pytest.mark.parametrize("lo,hi", [(-3, 2), (-1, 4), (0, 0), (0, 3), (2, 5)])
@pytest.mark.parametrize("spare", [0, 1, 2])
@pytest.mark.parametrize("seed", range(3))
def test_point_read_equals_the_fit_evaluated(lo, hi, spare, seed):
    rng = random.Random(f"read {lo} {hi} {spare} {seed}")
    m = hi - lo + 1
    xs = _random_abscissae(rng, m + spare)
    p = _random_laurent(rng, lo, hi)
    # a scalar line, then mappings with a key missing at a pair where it
    # vanishes and a key that is zero at every pair it is missing from
    maps = [{"b": p.eval_at({"w": x})} for x in xs]
    if hi > lo:
        r = rng.randrange(m + spare)
        a = (MultiLaurent.var("w") - xs[r]) * _random_laurent(rng, lo, hi - 1)
        for k, x in enumerate(xs):
            if k != r:
                maps[k]["a"] = a.eval_at({"w": x})
    maps[0]["z"] = 0
    ats = [1, -1, Fraction(5, 3), GaussianRational(Fraction(-2, 7)), xs[0], xs[-1]]
    for pairs in ([(x, y["b"]) for x, y in zip(xs, maps)], list(zip(xs, maps))):
        fit = interpolate_along("w", iter(pairs), lo, hi, spare)
        for at in ats:
            if isinstance(fit, dict):
                want = {k: f.eval_at({"w": at}) for k, f in fit.items()}
            else:
                want = fit.eval_at({"w": at})
            got = interpolate_along("w", iter(pairs), lo, hi, spare, at)
            assert _typed_value(got) == _typed_value(want), at


def test_point_read_checks_its_spare_pairs():
    p = MultiLaurent(("w",), {(-2,): Fraction(3, 5), (0,): -I, (3,): 7})
    pairs = list(islice(abscissa_sweep(_evaluate(p)), 8))
    assert interpolate_along("w", iter(pairs), -2, 3, 2, 1) == p.eval_at({"w": 1})
    for k in (6, 7):
        bent = list(pairs)
        bent[k] = (bent[k][0], bent[k][1] + Fraction(1, 10 ** 9))
        with pytest.raises(DomainError, match="too small"):
            interpolate_along("w", iter(bent), -2, 3, 2, 1)
    # a window one too small
    with pytest.raises(DomainError, match="too small"):
        interpolate_along("w", iter(pairs), -2, 2, 3, 1)


def test_point_read_refuses_a_zero_or_non_real_point_before_sampling():
    taken = []

    def samples():
        for k in range(2, 10):
            taken.append(k)
            yield k, k

    for at, match in ((0, "nonzero"), (GaussianRational(0), "nonzero"), (I, "not real"),
                      (GaussianRational(2, 1), "not real")):
        with pytest.raises(UsageError, match=match):
            interpolate_along("w", samples(), 0, 1, 1, at)
    assert taken == []


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_psi_in_z_equals_the_newton_reference(monkeypatch, N):
    from xtl import qkz
    from xtl.sampling import ExactSampler
    rng = ExactSampler(7900 + N)
    s, beta = rng.s_value(), rng.beta_value()
    zs = rng.z_point(N, s, beta)
    fits = [qkz.psi_vector_poly_in_z(N, zs, i, s, beta) for i in range(1, N + 1)]
    monkeypatch.setattr(qkz, "interpolate_along", _newton_along)
    assert [_typed(f) for f in fits] == \
        [_typed(qkz.psi_vector_poly_in_z(N, zs, i, s, beta)) for i in range(1, N + 1)]


def test_a_cached_weight_set_hides_no_failure(monkeypatch):
    from xtl import exact, qkz
    from xtl.sampling import ExactSampler
    monkeypatch.setattr(exact, "_latest_weights", None)
    p = MultiLaurent(("w",), {(-2,): Fraction(3, 5), (0,): -I, (3,): 7})
    pairs = list(islice(abscissa_sweep(_evaluate(p)), 8))
    assert interpolate_along("w", iter(pairs), -2, 3, 2) == p
    cached = exact._latest_weights[2]
    # one perturbed spare sample, checked with the cached weights
    for k in (6, 7):
        bent = list(pairs)
        bent[k] = (bent[k][0], bent[k][1] + Fraction(1, 10 ** 9))
        with pytest.raises(DomainError):
            interpolate_along("w", iter(bent), -2, 3, 2)
        assert exact._latest_weights[2] is cached
    # the same window abscissae and spares, the window shifted past w^-2
    with pytest.raises(DomainError):
        interpolate_along("w", iter(pairs), -1, 4, 2)
    # a window one too small, checked at one more spare of the same abscissae
    with pytest.raises(DomainError):
        interpolate_along("w", iter(pairs), -2, 2, 3)
    assert interpolate_along("w", iter(pairs), -2, 3, 2) == p
    # a wrong parity rule along the curve of psi_vector_poly_in_z
    rng = ExactSampler(7950)
    s, beta = rng.s_value(), rng.beta_value()
    zs = rng.z_point(3, s, beta)

    def at(x):
        return [x, *zs[1:]]

    right = qkz._psi_along("z", 3, at, s, beta, 2, lambda a: int(1 in a), 2)
    assert right == qkz.psi_vector_poly_in_z(3, zs, 1, s, beta)
    with pytest.raises(DomainError):
        qkz._psi_along("z", 3, at, s, beta, 2, lambda a: int(1 not in a), 2)


def test_equal_abscissae_of_any_type_share_one_weight_set(monkeypatch):
    from xtl import exact
    monkeypatch.setattr(exact, "_latest_weights", None)
    p = MultiLaurent(("w",), {(-1,): Fraction(1, 3), (0,): I, (2,): -5})
    values = [2, -3, Fraction(1, 2), Fraction(-5, 4)]
    ys = [p.eval_at({"w": x}) for x in values]
    fits, built = [], []
    for kind in (lambda x: x, Fraction, GaussianRational):
        fits.append(interpolate_laurent("w", [kind(x) for x in values], ys, -1, 2))
        built.append(exact._latest_weights[2])
    assert built[0] is built[1] is built[2]
    assert [_typed(f) for f in fits] == [_typed(p)] * 3


def test_a_non_real_abscissa_is_refused_before_any_solve(monkeypatch):
    from xtl import exact
    solves = []
    real = exact.interpolate_laurent
    monkeypatch.setattr(exact, "interpolate_laurent", lambda *a: solves.append(a) or real(*a))
    pairs = [(2, 1), (3, 1), (GaussianRational(1, 1), 1)]
    with pytest.raises(UsageError, match="not real"):
        interpolate_along("w", iter(pairs), 0, 1, 1)
    with pytest.raises(UsageError, match="not real"):
        interpolate_along("w", iter(pairs[::-1]), 0, 1, 1)
    assert solves == []
    with pytest.raises(UsageError, match="not real"):
        real("w", [2, I], [1, 1], 0, 1)
    with pytest.raises(UsageError, match="nonzero"):
        real("w", [2, 0], [1, 1], 0, 1)


def test_only_the_latest_weight_set_is_kept(monkeypatch):
    from xtl import exact
    monkeypatch.setattr(exact, "_latest_weights", None)
    assert interpolate_laurent("w", [1, 2], [1, 1], 0, 1) == 1
    first = exact._latest_weights[2]
    assert interpolate_laurent("w", [1, 2], [3, 5], 0, 1) == 2 * MultiLaurent.var("w") + 1
    assert exact._latest_weights[2] is first
    # other abscissae, or the same ones for other exponents, replace the set
    assert interpolate_laurent("w", [2, 3], [3, 2], -1, 0) == 6 * MultiLaurent.var("w") ** -1
    assert exact._latest_weights[:2] == (((2, 1), (3, 1)), -1)
    assert interpolate_laurent("w", [2, 3], [3, 2], 0, 1) == 5 - MultiLaurent.var("w")
    assert exact._latest_weights[:2] == (((2, 1), (3, 1)), 0)
    assert interpolate_laurent("w", [1, 2], [1, 1], 0, 1) == 1
    assert exact._latest_weights[:2] == (((1, 1), (2, 1)), 0)
    assert exact._latest_weights[2] is not first


def _skipping(keep):
    """A sample that is x itself where keep(x), and degenerate elsewhere."""
    def sample(x):
        if not keep(x):
            raise DegeneratePointError("skip")
        return x
    return sample


def test_abscissa_sweep_order_and_filter():
    pairs = abscissa_sweep(_skipping(lambda x: x != Fraction(2, 3)))
    got = [next(pairs) for _ in range(5)]
    assert [x for x, _ in got] == [Fraction(3, 2), Fraction(-3, 2), Fraction(4, 3),
                                   Fraction(3, 4), Fraction(-4, 3)]
    assert all(isinstance(x, GaussianRational) and y is x for x, y in got)


def test_abscissa_sweep_raises_when_sample_keeps_degenerating():
    with pytest.raises(DomainError, match="nondegenerate sample points"):
        next(abscissa_sweep(_skipping(lambda x: False)))
    # samples the first few points, then nothing more
    pairs = abscissa_sweep(_skipping(lambda x: x.re > 0 and x.re.denominator < 5))
    with pytest.raises(DomainError, match="nondegenerate sample points"):
        for _ in pairs:
            pass


def test_abscissa_sweep_skips_only_degenerate_points():
    # any other error, a DomainError included, propagates at the first abscissa
    seen = []

    def failing(error):
        def sample(x):
            seen.append(x)
            raise error
        return sample

    for error in (DomainError("division by zero in Q(i)"), UsageError("bad"),
                  ZeroDivisionError()):
        seen.clear()
        with pytest.raises(type(error)) as info:
            next(abscissa_sweep(failing(error)))
        assert info.value is error and seen == [Fraction(3, 2)]
    # the patience counts skips in a row: one success restarts it
    calls = []

    def every_hundredth(x):
        calls.append(x)
        if len(calls) % 100:
            raise DegeneratePointError("skip")
        return x

    pairs = abscissa_sweep(every_hundredth)
    assert [next(pairs)[1] for _ in range(3)] == [calls[99], calls[199], calls[299]]


def test_div_exact_univar():
    w = MultiLaurent.var("w")
    d = w - MultiLaurent(("w",), {(-1,): 1})
    p = d * (3 * w ** 2 + MultiLaurent(("w",), {(-5,): Fraction(1, 2)}))
    assert div_exact_univar(p, d, "w") * d == p
    with pytest.raises(DomainError):
        div_exact_univar(w + 1, d, "w")


def test_degenerate_point_error_is_a_domain_error():
    assert isinstance(DegeneratePointError("x"), DomainError)
