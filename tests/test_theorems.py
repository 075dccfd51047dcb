import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from xtl import qkz, sixvertex, theorems, tsasm
from xtl.contour import sum_components
from xtl.exact import (DegeneratePointError, GaussianRational as G, MultiLaurent,
                       UsageError, inv)
from xtl.sampling import half_sites
from xtl.theorems import (check_corollaries, check_gf_lemma, check_main_theorem,
                          check_relation_SZ, check_Y_equals_YY)

X = MultiLaurent.var("x")
TAU = MultiLaurent.var("tau")


@pytest.mark.parametrize("N", range(0, 7))
def test_main_theorem_symbolic(N):
    rep = check_main_theorem(N)
    assert rep.passed, rep.failures[:1]


def test_main_theorem_fails_when_both_sides_are_zero(monkeypatch):
    # two zero sides compare equal; the sum at x = 0, tau = 1 counts at least
    # one TSASM, so the check must still fail
    zero = MultiLaurent.const(0, ("x", "tau"))
    monkeypatch.setattr(theorems, "sum_components", lambda N: zero)
    monkeypatch.setattr(theorems, "_weighted_enumeration", lambda gf, n, tau: zero)
    for N in (0, 5):
        rep = check_main_theorem(N)
        assert not rep.passed and rep.failures == [{"part": "count_at_x0_tau1", "lhs": 0}]
    # a count that is not an int fails the same way, its value recorded by
    # repr, rather than raising out of the check
    half = MultiLaurent.const(Fraction(1, 2), ("x", "tau"))
    monkeypatch.setattr(theorems, "sum_components", lambda N: half)
    monkeypatch.setattr(theorems, "_weighted_enumeration", lambda gf, n, tau: half)
    rep = check_main_theorem(5)
    count = half.eval_at({"x": 0, "tau": 1})
    assert not rep.passed and rep.failures == [{"part": "count_at_x0_tau1", "lhs": repr(count)}]


def test_main_theorem_four_site_expansion():
    # S_4 = x + (1+x+x^2)(1+tau)^2 equals (1+x(x-tau)) tau + (1+x)^2 (1+tau+tau^2)
    lhs = sum_components(4)
    rhs = (1 + X * (X - TAU)) * TAU + (1 + X) ** 2 * (1 + TAU + TAU ** 2)
    assert lhs == rhs


def test_main_theorem_two_sites():
    # S_2 = 1+x against the single degree-one term of the generating function
    assert sum_components(2) == 1 + X


@pytest.mark.parametrize("N", range(0, 8))
def test_corollaries(N):
    rep = check_corollaries(N)
    assert rep.passed, rep.failures[:1]
    assert rep.params == {"N": N}


def test_corollaries_see_a_fault_at_order_15(monkeypatch):
    # every part runs at every N: at N = 6, part (c) counts order 15 and
    # part (d) reads genfun(7), so a fault there fails check_corollaries(6)
    enumerate_tsasm, genfun = theorems.enumerate_tsasm, theorems.genfun

    def one_short(N):
        ms = enumerate_tsasm(N)
        return ms[1:] if N == 7 else ms

    monkeypatch.setattr(theorems, "enumerate_tsasm", one_short)
    rep = check_corollaries(6)
    assert [f["part"] for f in rep.failures] == ["c_supersymmetric_point"]
    assert (rep.failures[0]["lhs"], rep.failures[0]["rhs"]) == (248, 247)
    monkeypatch.undo()

    def plus_one(N):
        gf = genfun(N)
        if N == 7:
            (e, _), *_ = gf.sorted_terms()
            gf = gf + MultiLaurent(("t", "tau"), {e: 1})
        return gf

    monkeypatch.setattr(theorems, "genfun", plus_one)
    rep = check_corollaries(6)
    assert [f["part"] for f in rep.failures] == ["d_shift"]


def test_corollary_supersymmetric_point_values():
    # the x = tau = 1 values step two orders up the counting sequence
    assert sum_components(4, x=1, tau=1) == 13
    assert sum_components(5, x=1, tau=1) == 46


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gf_lemma(n):
    rep = check_gf_lemma(n, trials=4, seed=2)
    assert rep.passed, rep.failures[:1]


@pytest.mark.parametrize("tm", [(0, 0), (1, 1)])
def test_negative_control_wrong_genfun_weight(monkeypatch, tm):
    # the enumeration side shares the column automaton with the partition route;
    # a wrong corner weight there (1 or t*tau instead of t) must break both
    # theorems, so neither passes by construction.  Weight 1 flips the parity
    # of mu, which the main theorem and corollary (a) treat as an internal error.
    monkeypatch.setattr(tsasm, "_GF_EXPONENTS", dict(tsasm._GF_EXPONENTS, tm=tm))
    if tm == (0, 0):
        with pytest.raises(RuntimeError):
            check_main_theorem(3)
        with pytest.raises(RuntimeError):
            check_corollaries(3)
    else:
        assert not all(check_main_theorem(N).passed for N in range(6))
    assert not check_gf_lemma(1, trials=2).passed


@pytest.mark.parametrize("N", range(0, 7))
def test_y_equals_yy(N):
    rep = check_Y_equals_YY(N, trials=4, seed=3)
    assert rep.passed, rep.failures[:1]


def test_y_equals_yy_negative_control_swapped_parity():
    # using the wrong pairing parameter for the parity must fail
    from xtl.exact import brace, inv
    from xtl.qkz import rescaled_Y
    from xtl.sampling import ExactSampler
    from xtl.sixvertex import rescaled_YY

    rng = ExactSampler(12)
    N = 3
    mismatches = 0
    for _ in range(3):
        s, beta = rng.s_value(), rng.beta_value()
        q = s * s
        t = -brace(beta * s) * inv(brace(s))
        ws = list(rng.w_point(N, s))
        lhs = rescaled_Y(N, ws, s, beta)
        rhs = rescaled_YY(1, ws, s, t, q)  # parity-wrong parameter
        mismatches += lhs != rhs
    assert mismatches


def test_half_sites_is_the_pairwise_inverted_tuple():
    w = G(-3, 1)
    assert half_sites([2, w], False) == [G(2), inv(G(2)), w, inv(w)]
    assert half_sites([w], True) == [w, inv(w), G(1)]
    assert half_sites([], True) == [G(1)] and half_sites([], False) == []
    # a zero w is refused on both sides of Y = YY
    for N in (2, 3):
        with pytest.raises(DegeneratePointError):
            qkz.gen_sum_Z(N, [G(0)], G(3), G(5))
    with pytest.raises(DegeneratePointError):
        sixvertex.overlap_ZZ(2, [G(2), 0], G(3), G(5), G(7))


_FAULTY_PAIRS = {  # the site pair a faulty half_sites makes of each w
    "w_and_inverse_swapped": lambda w: (inv(w), w),
    "inverse_negated": lambda w: (w, -inv(w)),
}


@pytest.mark.parametrize("fault", sorted(_FAULTY_PAIRS))
@pytest.mark.parametrize("N", range(2, 6))
def test_y_equals_yy_fails_on_a_shared_faulty_site_tuple(monkeypatch, fault, N):
    # both sides read the one half_sites; a fault in it is not hidden by the
    # sharing, because the two routes evaluate different functions there
    def faulty(ws, odd):
        return [z for w in ws for z in _FAULTY_PAIRS[fault](w)] + [G(1)] * odd

    monkeypatch.setattr(qkz, "half_sites", faulty)
    monkeypatch.setattr(sixvertex, "half_sites", faulty)
    assert not check_Y_equals_YY(N, trials=2, seed=3).passed


@pytest.mark.parametrize("N", [3, 5])
def test_y_equals_yy_fails_without_the_odd_size_divisor(monkeypatch, N):
    real = qkz.y_divisor
    monkeypatch.setattr(qkz, "y_divisor", lambda N, ws, s: real(0, ws, s))
    assert not check_Y_equals_YY(N, trials=2, seed=3).passed


@pytest.mark.parametrize("check", [lambda t: check_relation_SZ(3, trials=t),
                                   lambda t: check_Y_equals_YY(3, trials=t),
                                   lambda t: check_gf_lemma(1, trials=t)],
                         ids=["relation_SZ", "Y_equals_YY", "gf_lemma"])
def test_sampled_checks_refuse_zero_trials(check):
    for trials in (0, -2):
        with pytest.raises(UsageError):
            check(trials)


@pytest.mark.parametrize("N", range(0, 5))
def test_relation_sz(N):
    rep = check_relation_SZ(N, trials=3, seed=4)
    assert rep.passed, rep.failures[:1]


def test_relation_sz_five_sites_single_trial():
    rep = check_relation_SZ(5, trials=1, seed=8)
    assert rep.passed


def test_relation_sz_six_sites_single_trial():
    rep = check_relation_SZ(6, trials=1, seed=8)
    assert rep.passed


def test_report_json_lines():
    rep = check_main_theorem(2)
    obj = json.loads(rep.to_json_line())
    assert obj["pass"] and obj["statement"]


def test_importing_theorems_leaves_the_residue_route_unloaded():
    # verify --suite main, corollaries and gflemma import theorems only; the
    # two checkers that run the residue route import qkz when they are called
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = ("import sys, xtl.theorems as t; print('xtl.qkz' in sys.modules); "
            "t.check_Y_equals_YY(2, trials=1); print('xtl.qkz' in sys.modules)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=path))
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["False", "True"]
