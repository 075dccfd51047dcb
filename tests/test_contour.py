import json
import pathlib
from fractions import Fraction

import pytest

from xtl import contour
from xtl.cli import serialize
from xtl.contour import ChainShape, psi_components, sum_components, tsasm_count_integral
from xtl.exact import DomainError, MultiLaurent

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
    monkeypatch.setattr(contour, "_mul_factor",
                        lambda series, factor, caps: {caps: Fraction(1, 2)})
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
    # the largest coefficient of sum_components(8) has 10 bits, so balanced
    # digits need B >= 11: the replay passes there and fails one bit lower
    # (the derived bound gives B = 50 at N = 8, so the margin is all in the
    # bound; see contour._extract)
    row = SUM_GOLDEN["sum"][8]
    monkeypatch.setattr(contour, "_digit_bits", lambda factors: 11)
    assert _sum_json(8) == row["sum"]
    monkeypatch.setattr(contour, "_digit_bits", lambda factors: 10)
    assert _sum_json(8) != row["sum"]
    psi_row = SUM_GOLDEN["psi"][8]  # largest coefficient: 7 bits
    monkeypatch.setattr(contour, "_digit_bits", lambda factors: 8)
    assert _psi_json(8) == psi_row["psi"]
    monkeypatch.setattr(contour, "_digit_bits", lambda factors: 7)
    assert _psi_json(8) != psi_row["psi"]
