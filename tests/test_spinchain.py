import json
from fractions import Fraction
from itertools import combinations

import pytest

from xtl import spinchain
from xtl.contour import ComponentTable, psi_components, sum_components
from xtl.exact import DomainError, MultiLaurent, UsageError
from xtl.operators import SpinVector
from xtl.spinchain import apply_hamiltonian_sector, eigenvalue_E, verify_eigenpair


def dense_hamiltonian(N, x):
    """The full 2^N-dimensional Hamiltonian at a rational x, built entry by
    entry from the spin words: the reference for the sector application."""
    half = Fraction(1, 2)
    p, pp = half * (half - x), half * (half - 1 / x)
    dim = 1 << N
    h = [[0] * dim for _ in range(dim)]
    for b in range(dim):
        spins = [1 - 2 * ((b >> (N - i)) & 1) for i in range(1, N + 1)]  # +1 up
        h[b][b] = p * spins[0] + pp * spins[-1]
        for i in range(N - 1):
            h[b][b] += Fraction(spins[i] * spins[i + 1], 4)
            if spins[i] != spins[i + 1]:
                h[b ^ (1 << (N - 1 - i)) ^ (1 << (N - 2 - i))][b] -= 1
    return h


def test_eigenvalue_examples():
    assert eigenvalue_E(5, 1) == Fraction(-7, 2)
    assert eigenvalue_E(3, 2) == Fraction(-9, 4)
    x = Fraction(4, 7)
    assert eigenvalue_E(1, x) == Fraction(1, 2) - x / 2 - 1 / (2 * x)
    with pytest.raises(DomainError):
        eigenvalue_E(2, 0)


def test_single_site_hamiltonian_is_boundary_fields_only():
    x = Fraction(3, 5)
    d = dense_hamiltonian(1, x)
    val = Fraction(1, 2) * (Fraction(1, 2) - x) + Fraction(1, 2) * (Fraction(1, 2) - 1 / x)
    assert d[0][0] == val and d[1][1] == -val and d[0][1] == 0


def test_two_site_hamiltonian_structure():
    d = dense_hamiltonian(2, Fraction(1))
    # off-diagonal hop of strength -1 in the mixed block, quarter-weighted diagonal
    assert d[1][2] == d[2][1] == -1
    assert d[0][0] == Fraction(-1, 4) and d[3][3] == Fraction(3, 4)
    assert d[0][1] == d[0][2] == d[0][3] == 0


def test_dense_matrix_is_symmetric_and_sector_preserving():
    for N in (2, 3, 4):
        d = dense_hamiltonian(N, Fraction(2, 3))
        dim = 1 << N
        for a in range(dim):
            for b in range(dim):
                assert d[a][b] == d[b][a]
                if d[a][b] != 0:
                    assert bin(a).count("1") == bin(b).count("1")


def _index(N, key):
    b = 0
    for p in key:
        b |= 1 << (N - p)
    return b


def test_sector_application_matches_dense():
    N, x = 4, Fraction(5, 3)
    h = dense_hamiltonian(N, x)
    amps = {(1, 3): Fraction(2), (2, 4): Fraction(-1, 2), (3, 4): Fraction(7)}
    out = apply_hamiltonian_sector(N, x, amps)
    dim = 1 << N
    vec = [Fraction(0)] * dim
    for k, v in amps.items():
        vec[_index(N, k)] = v
    hv = [sum(h[r][c] * vec[c] for c in range(dim)) for r in range(dim)]
    got = [Fraction(0)] * dim
    for k, v in out.items():
        got[_index(N, k)] = v
    assert got == hv


@pytest.mark.parametrize("x", [Fraction(5, 3), Fraction(-2, 7)])
@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_sector_application_matches_dense_in_every_sector(N, x):
    # every down-position tuple of every sector carries a nonzero amplitude,
    # and N = 1 is the boundary fields alone
    h = dense_hamiltonian(N, x)
    keys = [k for n in range(N + 1) for k in combinations(range(1, N + 1), n)]
    amps = {k: Fraction(3 * j - 7, j + 2) for j, k in enumerate(keys)}
    out = apply_hamiltonian_sector(N, x, amps)
    dim = 1 << N
    vec = [Fraction(0)] * dim
    for k, v in amps.items():
        vec[_index(N, k)] = v
    hv = [sum(h[r][c] * vec[c] for c in range(dim)) for r in range(dim)]
    got = [Fraction(0)] * dim
    for k, v in out.items():
        got[_index(N, k)] = v
    assert got == hv
    assert all(v != 0 for v in out.values())


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_symbolic_x_evaluates_to_numeric_results(N):
    X = MultiLaurent.var("x")
    x = Fraction(5, 3)
    assert eigenvalue_E(N, X).eval_at({"x": x}) == eigenvalue_E(N, x)
    amps = dict(psi_components(N, x=x, tau=Fraction(1)).entries)
    symbolic = apply_hamiltonian_sector(N, X, amps)
    numeric = apply_hamiltonian_sector(N, x, amps)
    assert {k: v.eval_at({"x": x}) for k, v in symbolic.items()
            if v.eval_at({"x": x})} == numeric
    # the table at this x is an eigenvector, so both sides give E v
    e = eigenvalue_E(N, x)
    assert numeric == {k: e * v for k, v in amps.items() if v}


def test_spin_vector_keeps_the_ring_and_drops_zeros():
    X = MultiLaurent.var("x")
    v = SpinVector.make(2, {(1,): X, (2,): Fraction(1, 2), (1, 2): 0})
    assert v.amps == {(1,): X, (2,): Fraction(1, 2)}
    assert type(v.amps[(2,)]) is Fraction
    assert (v + SpinVector.make(2, {(1,): -X})).amps == {(2,): Fraction(1, 2)}
    assert v.apply(((1, 0), (0, 0)), 1).amps == {(2,): Fraction(1, 2)}
    assert v != SpinVector.make(2, {(1,): X})
    with pytest.raises(UsageError):
        SpinVector.make(2, {(2, 1): 1})
    with pytest.raises(UsageError):
        SpinVector.make(2, {(3,): 1})


@pytest.mark.parametrize("x", [Fraction(1), Fraction(2), Fraction(1, 3), Fraction(7, 5)])
def test_eigenpair_small_sizes(x):
    for N in range(1, 7):
        rep = verify_eigenpair(N, x)
        assert rep.passed, (N, x)
        assert rep.eigenvalue == eigenvalue_E(N, x)


def test_eigenpair_normalization_component():
    rep = verify_eigenpair(4, Fraction(1))
    assert rep.normalization_ok
    tab = psi_components(4, x=Fraction(1), tau=Fraction(1))
    assert tab.entries[(1, 2)] == 1


def test_negative_control_perturbed_component():
    N, x = 3, Fraction(2)
    tab = psi_components(N, x=x, tau=Fraction(1))
    amps = {a: Fraction(v) for a, v in tab.entries.items() if v != 0}
    first = next(iter(amps))
    amps[first] += 1
    hv = apply_hamiltonian_sector(N, x, amps)
    e = eigenvalue_E(N, x)
    assert any(hv.get(k, 0) != e * amps.get(k, 0) for k in set(hv) | set(amps))


@pytest.mark.parametrize("N", [1, 2, 5])
@pytest.mark.parametrize("scale", [0, 2])
def test_a_scaled_table_fails_only_the_normalization(monkeypatch, N, scale):
    # H psi = E psi is linear in psi, so a zero table or twice the table is
    # still an eigenvector (a zero table has no entries, so the residual and
    # the sector check pass vacuously); only normalization_ok sees it, and
    # the report must fail through it
    real = spinchain.psi_components

    def scaled(N, x, tau):
        tab = real(N, x=x, tau=tau)
        return ComponentTable(tab.shape, {a: scale * v for a, v in tab.entries.items()})

    monkeypatch.setattr(spinchain, "psi_components", scaled)
    rep = verify_eigenpair(N, Fraction(7, 5))
    assert (rep.residual_zero, rep.magnetization_ok, rep.normalization_ok) == (True, True, False)
    assert not rep.passed


def test_component_sum_consistency():
    x = Fraction(7, 5)
    for N in range(1, 9):
        tab = psi_components(N, x=x, tau=Fraction(1))
        assert sum(tab.entries.values()) == sum_components(N, x=x, tau=Fraction(1))


def test_report_json():
    rep = verify_eigenpair(3, Fraction(3, 7))
    obj = json.loads(json.dumps(rep.to_json()))
    assert obj["N"] == 3 and obj["x"] == "3/7"
    assert obj["residual_zero"] and obj["magnetization_ok"]
