import json
import pathlib
from fractions import Fraction
from itertools import combinations, product

import pytest

from xtl import contour
from xtl.cli import serialize
from xtl.contour import ChainShape, psi_components, sum_components, tsasm_count_integral
from xtl.exact import DomainError, GaussianRational, MultiLaurent, format_scalar

X = MultiLaurent.var("x")
T = MultiLaurent.var("tau")

# tests/data/make_sum_golden.py wrote these strings from an earlier contour
# route (MultiLaurent coefficients); the packed-int route must reproduce them
SUM_GOLDEN = json.loads((pathlib.Path(__file__).parent / "data"
                         / "sum_golden.json").read_text())


def _sum_json(N):
    return serialize(sum_components(N), "json").rstrip("\n")


def _psi_json(N):
    return json.dumps(psi_components(N).to_json(), separators=(",", ":"))


def test_chain_shape():
    s = ChainShape.of(5)
    assert (s.n, s.nprime, s.eps) == (2, 3, 1)
    assert s.n + s.nprime == 5
    s = ChainShape.of(8)
    assert (s.n, s.nprime, s.eps) == (4, 4, 0)


def test_psi4_table_matches_published_polynomials():
    t = psi_components(4).entries
    assert t[(1, 2)] == T
    assert t[(1, 3)] == 1 + X * T + T ** 2
    assert t[(1, 4)] == X * (1 + T ** 2)
    assert t[(2, 3)] == X + T + X ** 2 * T
    assert t[(2, 4)] == X * (X + T + X * T ** 2)
    assert t[(3, 4)] == X ** 2 * T


def test_smallest_tuple_entry_is_tau_power():
    for N in range(0, 9):
        table = psi_components(N)
        n, npr = table.shape.n, table.shape.nprime
        first = tuple(range(1, n + 1))
        assert table.entries[first] == T ** (npr * (npr - 1) // 2)


def test_table_has_full_tuple_set():
    from math import comb
    for N in (3, 5, 6):
        table = psi_components(N)
        assert len(table.entries) == comb(N, table.shape.n)


def test_sum_components_published_values():
    assert sum_components(0) == 1
    assert sum_components(1) == 1
    assert sum_components(2) == 1 + X
    assert sum_components(3) == (1 + X) * (1 + T)
    assert sum_components(4) == X + (1 + X + X ** 2) * (1 + T) ** 2
    assert sum_components(5) == (X * (1 + T) ** 2 * (2 + 2 * T + T ** 2)
                                 + (1 + X ** 2) * (1 + 4 * T + 4 * T ** 2 + 3 * T ** 3 + T ** 4))


def test_sum_equals_sum_of_components():
    for N in range(0, 9):
        table = psi_components(N)
        total = MultiLaurent.const(0, ("x", "tau"))
        for p in table.entries.values():
            total = total + p
        assert total == sum_components(N), N


def test_coefficients_nonnegative_regression():
    # Empirical regression check (not a stated claim): all coefficients of the
    # component polynomials and their sum are nonnegative integers for N <= 8.
    def coeffs(p):
        if isinstance(p, MultiLaurent):
            return p.terms.values()
        return [p]

    for N in range(0, 9):
        for p in psi_components(N).entries.values():
            assert all(isinstance(c, int) and c >= 0 for c in coeffs(p))
        assert all(isinstance(c, int) and c >= 0 for c in coeffs(sum_components(N)))


def test_numeric_specialization_matches_symbolic():
    x0, t0 = Fraction(7, 5), Fraction(1)
    sym = sum_components(5)
    num = sum_components(5, x=x0, tau=t0)
    assert sym.eval_at({"x": x0, "tau": t0}) == num
    tab = psi_components(4, x=x0, tau=t0)
    symtab = psi_components(4)
    for a, v in tab.entries.items():
        assert symtab.entries[a].eval_at({"x": x0, "tau": t0}) == v


def test_tsasm_count_integral_small_orders():
    assert [tsasm_count_integral(N) for N in range(0, 7)] == [1, 1, 1, 2, 4, 13, 46]


def test_tsasm_count_integral_rejects_non_integer_count(monkeypatch):
    # a real exception, so the guard also holds under python -O
    monkeypatch.setattr(contour, "_expand",
                        lambda caps, factors, targets: [Fraction(1, 2)] * len(targets))
    with pytest.raises(DomainError):
        tsasm_count_integral(4)


def test_component_table_json():
    obj = psi_components(2).to_json()
    assert obj["N"] == 2 and obj["n"] == 1
    assert [e["a"] for e in obj["entries"]] == [[1], [2]]


@pytest.mark.parametrize("row", SUM_GOLDEN["sum"], ids=lambda r: f"N{r['N']}")
def test_sum_components_match_golden(row):
    assert _sum_json(row["N"]) == row["sum"]


@pytest.mark.parametrize("row", SUM_GOLDEN["psi"], ids=lambda r: f"N{r['N']}")
def test_psi_components_match_golden(row):
    assert _psi_json(row["N"]) == row["psi"]


def test_golden_replay_catches_a_too_narrow_digit_width(monkeypatch):
    # the reads of F are summed per power of x before they are decoded, so
    # the digits are the coefficients of x^i tau^j themselves.  The largest
    # coefficient of sum_components(8) has 10 bits, so balanced digits need
    # B >= 11: the replay passes there and fails one bit lower (the derived
    # bound gives B = 50 at N = 8, so the margin is all in the bound; see
    # contour._extract)
    row = SUM_GOLDEN["sum"][8]
    monkeypatch.setattr(contour, "_digit_bits", lambda factors, weight: 11)
    assert _sum_json(8) == row["sum"]
    monkeypatch.setattr(contour, "_digit_bits", lambda factors, weight: 10)
    assert _sum_json(8) != row["sum"]
    psi_row = SUM_GOLDEN["psi"][8]  # largest coefficient: 7 bits
    monkeypatch.setattr(contour, "_digit_bits", lambda factors, weight: 8)
    assert _psi_json(8) == psi_row["psi"]
    monkeypatch.setattr(contour, "_digit_bits", lambda factors, weight: 7)
    assert _psi_json(8) != psi_row["psi"]


# ---------------------------------------------------------------------------
# the tuple-key expansion that the packed-key one replaced, kept as its
# reference: it multiplies in the n factors (u_k + x) itself, packs both x
# and tau whatever is given, and evaluates a given value at decode
# ---------------------------------------------------------------------------

def _reference_mul_factor(series, factor, caps):
    out = {}
    for e, c in series.items():
        for de, fc in factor:
            ne = tuple(a + b for a, b in zip(e, de))
            if any(v > cap for v, cap in zip(ne, caps)):
                continue
            s = out.get(ne, 0) + c * fc
            if s:
                out[ne] = s
            else:
                out.pop(ne, None)
    return out


def _reference_digit_bits(factors):
    bound = 1
    for f in factors:
        bound *= sum(abs(c) for _, c in f)
    return bound.bit_length() + 1


def _reference_decode(packed, B, W, x, tau):
    terms = {}
    k = 0
    while packed:
        d = packed & ((1 << B) - 1)
        if d >> (B - 1):
            d -= 1 << B
        packed = (packed - d) >> B
        if d:
            i, j = divmod(k, W)
            if x is not None:
                d, i = d * x ** i, 0
            if tau is not None:
                d, j = d * tau ** j, 0
            terms[i, j] = terms.get((i, j), 0) + d
        k += 1
    if x is not None and tau is not None:
        return terms.get((0, 0), 0)
    return MultiLaurent(("x", "tau"), terms)


def _reference_factors(shape, x, tau, geometric, x_power=1):
    """The whole integrand's factors: the n factors (u_k^x_power + x), then
    contour._factors at the caps."""
    n, caps = shape.n, contour._caps(shape)
    xs = [[(tuple(x_power * (i == k) for i in range(n)), 1), ((0,) * n, x)]
          for k in range(n)]
    return xs + contour._factors(shape, tau, geometric, caps)


def reference_extract(shape, geometric, targets, points, x_power=1):
    """contour._extract at each (x, tau) of points by one (x, tau)-packed
    expansion, decoded at each point.  x_power moves the x factors, for the
    negative control."""
    n, caps = shape.n, contour._caps(shape)
    B = _reference_digit_bits(_reference_factors(shape, 1, 1, geometric, x_power))
    W = n * shape.eps + n * (n - 1) + 1
    series = {(0,) * n: 1}
    for f in _reference_factors(shape, 1 << (B * W), 1 << B, geometric, x_power):
        series = _reference_mul_factor(series, f, caps)
    return [[_reference_decode(series.get(t, 0), B, W, x, tau) for t in targets]
            for x, tau in points]


_EXTRACT_POINTS = [
    (None, None), (Fraction(7, 5), 1), (None, 1), (None, Fraction(-2, 3)),
    (Fraction(-1, 2), None), (1, 1), (0, 1), (Fraction(3, 7), Fraction(5, 2)),
    (GaussianRational(1, 1), 2), (None, 0),
    # an x of wide numerator and denominator beside a packed tau
    (Fraction(-1000, 999), None),
    # a real GaussianRational x is evaluated as the Fraction it equals, a
    # non-real one as itself
    (GaussianRational(Fraction(3, 2)), Fraction(1)), (GaussianRational(1, 1), None),
    # a non-real tau is the one value still packed beside an unknown
    (None, GaussianRational(0, 1)), (Fraction(3, 2), GaussianRational(1, -2)),
    (GaussianRational(1, 1), GaussianRational(2, 1)),
]


def _targets(shape):
    """Every component target and the sum target."""
    N, n = shape.N, shape.n
    return [tuple(N - a[n - k] for k in range(1, n + 1))
            for a in combinations(range(1, N + 1), n)] + [contour._caps(shape)]


@pytest.mark.parametrize("geometric", [False, True])
@pytest.mark.parametrize("N", range(10))
def test_extract_matches_the_tuple_key_reference(N, geometric):
    # every component target and the sum target, at each point.  A scalar comes back as the arithmetic gives it:
    # int or Fraction when both given values are real, GaussianRational when
    # one is not (a zero may stay an int or Fraction).  The CLI prints equal
    # values alike whatever their type.
    shape = ChainShape.of(N)
    targets = _targets(shape)
    wants = reference_extract(shape, geometric, targets, _EXTRACT_POINTS)
    for (x, tau), want in zip(_EXTRACT_POINTS, wants):
        got = contour._extract(shape, geometric, targets, x, tau)
        assert got == want, (x, tau)
        if x is None or tau is None:
            assert all(type(v) is MultiLaurent for v in got), (x, tau)
            continue
        real = contour._rational(x) is not None and contour._rational(tau) is not None
        assert all(type(v) in (int, Fraction) if real
                   else type(v) is GaussianRational or not v for v in got), (x, tau)
        assert [format_scalar(v) for v in got] == [format_scalar(v) for v in want], (x, tau)


@pytest.mark.parametrize("geometric", [False, True])
def test_the_reference_sees_a_moved_x_factor(geometric):
    # negative control: with the factors (u_k + x) moved to (u_k^2 + x) the
    # reference disagrees with _extract, so the comparison above can fail
    shape = ChainShape.of(5)
    targets = _targets(shape)
    points = [(None, None), (Fraction(7, 5), 1)]
    for (x, tau), moved in zip(points, reference_extract(shape, geometric, targets,
                                                          points, x_power=2)):
        assert contour._extract(shape, geometric, targets, x, tau) != moved, (x, tau)


@pytest.mark.parametrize("N", range(8))
def test_packed_keys_keep_a_monomial_at_its_cap_and_drop_one_past_it(N):
    shape = ChainShape.of(N)
    caps, n = contour._caps(shape), shape.n
    zero = (0,) * n
    inside = list(product(*(range(cap + 1) for cap in caps)))
    assert contour._expand(caps, [[(caps, 3)]], [caps]) == [3]
    for k in range(n):
        past = tuple(c + (i == k) for i, c in enumerate(caps))
        assert contour._expand(caps, [[(caps, 1), (past, 1)]], [caps, past]) == [1, 0]
        # a step far past every cap is dropped, not carried into the next
        # field: the constant term is the only coefficient left
        far = 2 ** (max(caps).bit_length() + 1) + 1
        step = tuple(far * (i == k) for i in range(n))
        got = contour._expand(caps, [[(zero, 1), (step, 1)]], inside)
        assert got == [int(not any(t)) for t in inside]
        if not n:
            continue
        # prod over k < n of (1 + u_k)^cap_k (1 + u_k - u_n)^cap_k: steps of
        # 1 keep the fields narrow, so the split's read of t at a tail
        # monomial f with f_k > t_k + bias_k borrows from the next field, and
        # the head reaches every exponent such a borrow could alias
        unit = [tuple(int(i == k) for i in range(n)) for k in range(n)]
        factors = [[(zero, 1), (unit[k], 1)] for k in range(n - 1) for _ in range(caps[k])]
        factors += [[(zero, 1), (unit[k], 1), (unit[-1], -1)] for k in range(n - 1)
                    for _ in range(caps[k])]
        want = {zero: 1}
        for f in factors:
            want = _reference_mul_factor(want, f, caps)
        assert contour._expand(caps, factors, inside) == [want.get(t, 0) for t in inside]


def _series_starts(monkeypatch):
    """Record, for each _mul_factor call, whether it starts a new product:
    whether the series it multiplies is not the one the call before gave."""
    starts, last, mul = [], [None], contour._mul_factor

    def spy(series, factor, guard):
        starts.append(series is not last[0])
        last[0] = mul(series, factor, guard)
        return last[0]
    monkeypatch.setattr(contour, "_mul_factor", spy)
    return starts


@pytest.mark.parametrize("N", range(2, 10))
def test_the_tail_starts_at_the_first_factor_that_touches_the_last_variable(N, monkeypatch):
    # a cut before the right one gives the same coefficients, so the
    # products show where it is: the tail's product starts at the first
    # factor that touches u_n, and every factor is multiplied in once
    shape = ChainShape.of(N)
    factors = contour._factors(shape, 1, True, contour._caps(shape))
    cut = next(i for i, f in enumerate(factors) if any(e[-1] for e, _ in f))
    for count in (sum_components, tsasm_count_integral):
        starts = _series_starts(monkeypatch)
        count(N)
        assert len(starts) == len(factors)
        assert [i for i, start in enumerate(starts) if start] == sorted({0, cut}), count


def test_factors_without_a_last_variable_factor_read_the_head_alone():
    # no factor touches u_n, so the tail is empty and each read is one
    # lookup in the head; n = 0 has no variables at all
    caps = (2, 3)
    factors = [[((0, 0), 1), ((1, 0), 2)], [((0, 0), 1), ((1, 0), -1)]]
    targets = [(0, 0), (1, 0), (2, 0), (1, 1)]
    assert contour._expand(caps, factors, targets) == [1, 1, -2, 0]
    assert contour._expand((), [[((), 5)]], [()]) == [5]
