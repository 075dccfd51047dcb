import functools
import hashlib
import itertools
import json
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from xtl import tsasm
from xtl.cli import serialize
from xtl.contour import tsasm_count_integral
from xtl.exact import DomainError, MultiLaurent, UsageError
from xtl.sixvertex import _automaton_sums, enumerate_configs
from xtl.tsasm import (config_from_tsasm, count_from_partition, enumerate_tsasm, genfun,
                       is_tsasm, matrix_blocks, matrix_from_array, triangular_array)

T = MultiLaurent.var("t")
TAU = MultiLaurent.var("tau")
DATA = pathlib.Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "genfun_golden.json"
# |TSASM(2N+1)| for N = 0..13 (OEIS A005164)
A005164 = [1, 1, 1, 2, 4, 13, 46, 248, 1516, 13654, 142873, 2156888, 38456356,
           974936056]

# the two published order-seven examples
EX7_A = [
    [0, 0, 0, 1, 0, 0, 0],
    [0, 1, 0, -1, 0, 1, 0],
    [0, 0, 0, 1, 0, 0, 0],
    [1, -1, 1, -1, 1, -1, 1],
    [0, 0, 0, 1, 0, 0, 0],
    [0, 1, 0, -1, 0, 1, 0],
    [0, 0, 0, 1, 0, 0, 0],
]
EX7_B = [
    [0, 0, 0, 1, 0, 0, 0],
    [0, 0, 1, -1, 1, 0, 0],
    [0, 1, -1, 1, -1, 1, 0],
    [1, -1, 1, -1, 1, -1, 1],
    [0, 1, -1, 1, -1, 1, 0],
    [0, 0, 1, -1, 1, 0, 0],
    [0, 0, 0, 1, 0, 0, 0],
]


def test_is_tsasm_published_examples():
    assert is_tsasm(EX7_A)
    assert is_tsasm(EX7_B)
    assert is_tsasm([[1]])
    assert not is_tsasm([[1, 0], [0, 1]])  # even orders are never valid
    assert not is_tsasm([[0, 1], [1, 0]])
    with pytest.raises(UsageError):
        is_tsasm([[1, 0], [0]])


def test_is_tsasm_rejects_asymmetric_asm():
    m = [
        [0, 1, 0],
        [1, -1, 1],
        [0, 1, 0],
    ]
    assert is_tsasm(m)
    m2 = [
        [1, 0, 0],
        [0, 0, 1],
        [0, 1, 0],
    ]
    assert not is_tsasm(m2)



def _reference_row_ok(row):
    nz = [v for v in row if v]
    if sum(nz) != 1:
        return False
    return all(a == -b for a, b in zip(nz, nz[1:])) and (not nz or nz[0] == 1)


def reference_is_tsasm(m):
    """Reference: the predicate checked entry by entry, every row and every
    column for alternation, then each entry against its transpose and row
    mirror."""
    rows = [list(r) for r in m]
    order = len(rows)
    if any(len(r) != order for r in rows):
        raise UsageError("matrix must be square")
    if order == 0 or order % 2 == 0:
        return False
    if any(v not in (-1, 0, 1) for r in rows for v in r):
        return False
    for r in rows:
        if not _reference_row_ok(r):
            return False
    for c in range(order):
        if not _reference_row_ok([rows[r][c] for r in range(order)]):
            return False
    for i in range(order):
        for j in range(order):
            if rows[i][j] != rows[j][i] or rows[i][j] != rows[i][order - 1 - j]:
                return False
    return True


@functools.lru_cache(maxsize=None)
def all_asms(order):
    """Every alternating sign matrix of the order, row by row with the column
    partial sums kept in {0, 1}; most are not symmetric, and some are
    invariant under the transpose or the row mirror alone."""
    lines = [r for r in itertools.product((-1, 0, 1), repeat=order) if _reference_row_ok(r)]
    out = []

    def extend(rows, sums):
        if len(rows) == order:
            if all(v == 1 for v in sums):
                out.append(tuple(rows))
            return
        for r in lines:
            new = [a + b for a, b in zip(sums, r)]
            if all(v in (0, 1) for v in new):
                extend(rows + [r], new)

    extend([], [0] * order)
    return out


@pytest.mark.parametrize("order", range(1, 6))
def test_is_tsasm_agrees_with_the_reference_on_every_small_asm(order):
    asms = all_asms(order)
    assert len(asms) == [1, 2, 7, 42, 429][order - 1]  # OEIS A005130
    got = [m for m in asms if is_tsasm(m)]
    assert got == [m for m in asms if reference_is_tsasm(m)]
    assert len(got) == (order % 2)  # one TSASM each of orders 1, 3 and 5


@pytest.mark.parametrize("N", range(9))
def test_is_tsasm_agrees_with_the_reference_on_every_listed_matrix(N):
    for m in enumerate_tsasm(N):
        assert is_tsasm(m) and reference_is_tsasm(m)


@pytest.mark.parametrize("N", range(6))
def test_is_tsasm_agrees_with_the_reference_on_single_entry_changes(N):
    # each entry set to each value, alone and together with its transpose
    # image, so the changes that keep the matrix symmetric are covered too
    order = 2 * N + 1
    for m in enumerate_tsasm(N):
        for i in range(order):
            for j in range(order):
                for v in range(-2, 3):
                    for cells in ((i, j),), ((i, j), (j, i)):
                        bad = [list(r) for r in m]
                        for a, b in cells:
                            bad[a][b] = v
                        assert is_tsasm(bad) == reference_is_tsasm(bad), (bad, cells)


@st.composite
def square_matrices(draw):
    """Square matrices of order 1..9: entries in -2..2, a listed TSASM or an
    ASM of order <= 5, then possibly one entry made a float and one a string."""
    order = draw(st.integers(1, 9))
    base = draw(st.sampled_from(["ints", "tsasm", "asm"]))
    if base == "tsasm" and order % 2:
        m = [list(r) for r in draw(st.sampled_from(enumerate_tsasm(order // 2)))]
    elif base == "asm" and order <= 5:
        m = [list(r) for r in draw(st.sampled_from(all_asms(order)))]
    else:
        row = st.lists(st.integers(-2, 2), min_size=order, max_size=order)
        m = draw(st.lists(row, min_size=order, max_size=order))
    cell = st.tuples(st.integers(0, order - 1), st.integers(0, order - 1))
    for odd in (st.sampled_from([-1.0, 0.0, 1.0, -0.0]) | st.floats(), st.text(max_size=2)):
        if draw(st.booleans()):
            i, j = draw(cell)
            m[i][j] = draw(odd)
    return m


@given(square_matrices())
@settings(max_examples=400, deadline=None)
def test_is_tsasm_agrees_with_the_reference_on_drawn_matrices(m):
    assert is_tsasm(m) == reference_is_tsasm(m)


def test_is_tsasm_refuses_an_unhashable_entry_as_before():
    m = [[0, 1, 0], [1, [-1], 1], [0, 1, 0]]
    assert is_tsasm(m) is reference_is_tsasm(m) is False


@pytest.mark.parametrize("m", [[[1, 0], [0]], [[1], [0]], [[1, 0, 0]], [[0, 1, 0], [1, -1, 1]]])
def test_non_square_input_is_refused_as_before(m):
    for predicate in (is_tsasm, reference_is_tsasm):
        with pytest.raises(UsageError, match="matrix must be square"):
            predicate(m)

def diamond_tsasm(N):
    """The diamond-shaped TSASM of order 2N+1 attaining the maximal statistics."""
    order = 2 * N + 1
    return [[(-1) ** (i + j + N) if abs(i - j) <= N and abs(2 * (N + 1) - i - j) <= N else 0
             for j in range(1, order + 1)] for i in range(1, order + 1)]


def test_diamond_matrix():
    assert diamond_tsasm(0) == [[1]]
    assert diamond_tsasm(3) == EX7_B
    for N in range(0, 7):
        d = diamond_tsasm(N)
        assert is_tsasm(d)
        arr = triangular_array(d)
        n, npr = N // 2, (N + 1) // 2
        assert arr.mu() == n and arr.nu() == n * (npr - 1)
    assert (triangular_array(diamond_tsasm(4)).mu(),
            triangular_array(diamond_tsasm(4)).nu()) == (2, 2)


def test_enumeration_counts():
    listed = [enumerate_tsasm(N) for N in range(9)]
    assert [len(ms) for ms in listed] == A005164[:9]
    assert all(is_tsasm(m) for ms in listed for m in ms)


def test_counting_routes_agree():
    for N in range(0, 7):
        e = len(enumerate_tsasm(N))
        assert tsasm_count_integral(N) == e
        assert count_from_partition(N) == e


def test_count_from_partition_rejects_non_integer_count(monkeypatch):
    # a real exception, so the guard also holds under python -O
    monkeypatch.setattr(tsasm, "interpolate_along",
                        lambda var, samples, lo, hi, spare:
                            MultiLaurent.const(Fraction(1, 2), (var,)))
    with pytest.raises(DomainError):
        count_from_partition(4)


def test_genfun_published_values():
    assert genfun(0) == 1
    assert genfun(1) == 1
    assert genfun(2) == T
    assert genfun(3) == T * (1 + TAU)
    assert genfun(4) == TAU + T ** 2 * (1 + TAU + TAU ** 2)
    assert genfun(5) == (TAU * (1 + TAU ** 2)
                         + T ** 2 * (1 + 3 * TAU + 4 * TAU ** 2 + 2 * TAU ** 3 + TAU ** 4))


def genfun_by_listing(N):
    """The defining sum: t^mu tau^nu over the listed, validated matrices."""
    out = MultiLaurent.const(0, ("t", "tau"))
    for m in enumerate_tsasm(N):
        arr = triangular_array(m)
        out = out + MultiLaurent(("t", "tau"), {(arr.mu(), arr.nu()): 1})
    return out


@pytest.mark.parametrize("N", range(9))
def test_genfun_equals_sum_over_listed_matrices(N):
    assert genfun(N) == genfun_by_listing(N)


def _golden_rows():
    return json.loads(GOLDEN.read_text())["rows"]


def test_genfun_golden_table():
    # rows N <= 8 were written by the materializing genfun, N = 9..13 by the
    # automaton summing MultiLaurent monomials (_monomial_genfun below)
    rows = _golden_rows()
    assert [r["N"] for r in rows] == list(range(14))
    for row in rows:
        gf = MultiLaurent.from_json(json.loads(row["genfun"]))
        assert gf.eval_at({"t": 1, "tau": 1}) == A005164[row["N"]]
        assert serialize(genfun(row["N"]), "json") == row["genfun"] + "\n", row["N"]


def _monomial_genfun(N):
    """The automaton sum genfun ran before its weights were packed into ints:
    one MultiLaurent monomial per vertex class of _GF_EXPONENTS, multiplied
    and added as polynomials, with no digit width to derive."""
    _, alpha = tsasm._staircase(N)
    mono = {cls: MultiLaurent(("t", "tau"), {e: 1}) for cls, e in tsasm._GF_EXPONENTS.items()}
    return _automaton_sums(tuple(alpha), lambda r, c, cls: mono[cls],
                           MultiLaurent.const(1, ("t", "tau")))[alpha]


@pytest.mark.parametrize("tm", [None, (0, 0), (1, 1)])
def test_packed_genfun_equals_the_monomial_sum(monkeypatch, tm):
    # besides the real table, the two wrong tm weights of
    # test_negative_control_wrong_genfun_weight.  (1, 1) puts tau on corners
    # as well, so tau's powers outrun a slot width fixed at n(2n - 1) + 1 (the
    # bulk vertices) already at N = 3: the width must follow the table
    if tm is not None:
        monkeypatch.setattr(tsasm, "_GF_EXPONENTS", dict(tsasm._GF_EXPONENTS, tm=tm))
    for N in range(13):
        assert genfun(N) == _monomial_genfun(N), N


def test_golden_replay_catches_a_too_narrow_digit_width(monkeypatch):
    # the largest coefficient of genfun(13) has 26 bits and the count 30, so
    # unsigned digits need B >= 26: the replay passes there, and one bit lower
    # a digit carries into its neighbour, which the digit-sum guard refuses
    row = _golden_rows()[13]
    monkeypatch.setattr(tsasm, "_digit_bits", lambda count: 26)
    assert serialize(genfun(13), "json") == row["genfun"] + "\n"
    monkeypatch.setattr(tsasm, "_digit_bits", lambda count: 25)
    with pytest.raises(RuntimeError, match="overlap"):
        genfun(13)


def test_negative_genfun_exponent_is_internal_error(monkeypatch):
    monkeypatch.setattr(tsasm, "_GF_EXPONENTS", dict(tsasm._GF_EXPONENTS, a=(0, -1)))
    with pytest.raises(RuntimeError, match="negative exponent"):
        genfun(4)



def test_enumeration_golden_table():
    # count and sha1 of `xtl tsasm list` text per order, written by
    # tests/data/make_tsasm_golden.py: pins the canonical order and the bytes
    rows = json.loads((DATA / "tsasm_golden.json").read_text())["rows"]
    assert [r["N"] for r in rows] == list(range(10))
    for row in rows:
        ms = enumerate_tsasm(row["N"])
        assert len(ms) == row["count"] == A005164[row["N"]]
        assert hashlib.sha1("".join(matrix_blocks(ms)).encode()).hexdigest() == row["sha1"], row["N"]

def test_genfun_rejects_negative_order():
    with pytest.raises(UsageError):
        genfun(-1)


@pytest.mark.parametrize("N", range(7))
def test_statistics_bounds(N):
    n, npr = N // 2, (N + 1) // 2
    seen_mu_n = False
    for m in enumerate_tsasm(N):
        arr = triangular_array(m)
        mu, nu = arr.mu(), arr.nu()
        assert mu <= n and (n - mu) % 2 == 0
        assert (n - mu) // 2 <= nu <= n * (npr - 1)
        seen_mu_n = seen_mu_n or mu == n
    assert seen_mu_n  # the diamond matrix attains the maximal diagonal count


@pytest.mark.parametrize("N", range(7))
def test_genfun_parity(N):
    n = N // 2
    gf = genfun(N)
    flipped = MultiLaurent(("t", "tau"),
                           {e: (c if e[0] % 2 == 0 else -c) for e, c in gf.terms.items()})
    sign = -1 if n % 2 else 1
    assert flipped == gf * sign


def test_no_matrices_without_diagonal_support_for_orders_5_and_7_mod_8():
    for N in (2, 3, 6):
        # every term carries a positive power of t: nothing survives t = 0
        assert all(mu > 0 for mu, _ in genfun(N).terms)


@pytest.mark.parametrize("N", range(7))
def test_column_count_bound(N):
    order = 2 * N + 1
    for m in enumerate_tsasm(N):
        for j in range(1, order + 1):
            nonzero = sum(1 for i in range(order) if m[i][j - 1])
            assert nonzero <= 2 * min(j, 2 * N + 2 - j) - 1


def test_bijection_figures_correspond():
    # the four size-2 '-' configurations map exactly onto the four order-9 matrices
    ms = enumerate_tsasm(4)
    assert len({"".join(matrix_blocks([m])) for m in ms}) == 4
    assert {config_from_tsasm(m) for m in ms} == set(enumerate_configs(2, "-"))


@pytest.mark.parametrize("N", range(13))
def test_staircase_orbits_tile_the_square_off_the_medians(N):
    # every entry off the medians is the image of at most one staircase entry;
    # for odd N only first and last rows and columns, which are 0 off the
    # medians in every TSASM of that order, are the image of none
    seen = set()
    for row in tsasm._cells(N):
        for _, _, i, j in row:
            orbit = set(tsasm._orbit(N, i, j))
            assert not orbit & seen and all(N not in e for e in orbit), (i, j)
            seen |= orbit
    order = 2 * N + 1
    missed = {(i, j) for i in range(order) for j in range(order) if N not in (i, j)} - seen
    if N % 2 == 0:
        assert not missed
    else:
        assert all({0, 2 * N} & {i, j} for i, j in missed)


@pytest.mark.parametrize("N", range(8))
def test_fundamental_domain_round_trip(N):
    for m in enumerate_tsasm(N):
        arr = triangular_array(m)
        assert matrix_from_array(arr) == m
        assert triangular_array(matrix_from_array(arr)) == arr


@pytest.mark.parametrize("N", range(2, 8))
def test_bijection_round_trip(N):
    # reading the classes back off each listed matrix's partial sums gives the
    # configuration it was built from, in the listing's order
    n, alpha = tsasm._staircase(N)
    assert [config_from_tsasm(m) for m in enumerate_tsasm(N)] == enumerate_configs(n, alpha)


def test_reconstruction_failure_is_internal_error():
    from xtl.tsasm import TriangularArray
    with pytest.raises(RuntimeError):
        matrix_from_array(TriangularArray(2, ((0, 1), (1, 1, 0))))


def test_text_format():
    txt = "".join(matrix_blocks(enumerate_tsasm(1)))
    assert txt == "0 1 0\n1 -1 1\n0 1 0\n"
