import json
from fractions import Fraction
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
    xinv = MultiLaurent.monomial(("x",), (-1,))
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
    assert MultiLaurent.monomial(("x",), (-1,)).eval_at({"x": 2}) == Fraction(1, 2)
    # [q z] as a Laurent polynomial in z with q = 4 evaluates at z=2 to 8 - 1/8
    qz = MultiLaurent(("z",), {(1,): 4, (-1,): Fraction(-1, 4)})
    assert qz.eval_at({"z": 2}) == Fraction(63, 8)
    with pytest.raises(DomainError):
        MultiLaurent.monomial(("x",), (-1,)).eval_at({"x": 0})
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
    d = w - MultiLaurent.monomial(("w",), (-1,))
    p = d * (3 * w ** 2 + MultiLaurent.monomial(("w",), (-5,), Fraction(1, 2)))
    assert div_exact_univar(p, d, "w") * d == p
    with pytest.raises(DomainError):
        div_exact_univar(w + 1, d, "w")


def test_degenerate_point_error_is_a_domain_error():
    assert isinstance(DegeneratePointError("x"), DomainError)
