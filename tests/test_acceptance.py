"""Acceptance suite: every criterion is checked exactly (tolerance zero) and
prints one PASS line with its runtime.  Run with:  pytest tests/test_acceptance.py -v -s
"""

import time
from fractions import Fraction

from xtl.contour import psi_components, sum_components, tsasm_count_integral
from xtl.exact import MultiLaurent
from xtl.sampling import ExactSampler

X = MultiLaurent.var("x")
TAU = MultiLaurent.var("tau")

COUNTS_1_TO_13 = [1, 1, 1, 2, 4, 13, 46]


def _report(num, label, t0, budget):
    dt = time.time() - t0
    print(f"ACCEPTANCE {num:2d}: PASS ({dt:6.2f}s / budget {budget}s) {label}")
    assert dt < budget, f"criterion {num} exceeded its {budget}s budget ({dt:.1f}s)"


def test_criterion_01_component_sums():
    t0 = time.time()
    assert sum_components(2) == 1 + X
    assert sum_components(3) == (1 + X) * (1 + TAU)
    assert sum_components(4) == X + (1 + X + X ** 2) * (1 + TAU) ** 2
    assert sum_components(5) == (X * (1 + TAU) ** 2 * (2 + 2 * TAU + TAU ** 2)
                                 + (1 + X ** 2) * (1 + 4 * TAU + 4 * TAU ** 2
                                                   + 3 * TAU ** 3 + TAU ** 4))
    _report(1, "component sums S_2..S_5 exact", t0, 1)


def test_criterion_02_four_site_component_table():
    t0 = time.time()
    t = psi_components(4).entries
    assert t[(1, 2)] == TAU
    assert t[(1, 3)] == 1 + X * TAU + TAU ** 2
    assert t[(1, 4)] == X * (1 + TAU ** 2)
    assert t[(2, 3)] == X + TAU + X ** 2 * TAU
    assert t[(2, 4)] == X * (X + TAU + X * TAU ** 2)
    assert t[(3, 4)] == X ** 2 * TAU
    _report(2, "four-site component table exact", t0, 1)


def test_criterion_03_counts_three_routes():
    from xtl.tsasm import count_from_partition, enumerate_tsasm
    t0 = time.time()
    got_enum = [len(enumerate_tsasm(N)) for N in range(7)]
    got_integral = [tsasm_count_integral(N) for N in range(7)]
    got_partition = [count_from_partition(N) for N in range(7)]
    assert got_enum == COUNTS_1_TO_13
    assert got_integral == COUNTS_1_TO_13
    assert got_partition == COUNTS_1_TO_13
    _report(3, "counts for orders 1..13 agree on all three routes", t0, 60)


def test_criterion_04_generating_functions():
    from xtl.tsasm import genfun
    t0 = time.time()
    T = MultiLaurent.var("t")
    assert genfun(2) == T
    assert genfun(3) == T * (1 + TAU)
    assert genfun(4) == TAU + T ** 2 * (1 + TAU + TAU ** 2)
    assert genfun(5) == (TAU * (1 + TAU ** 2)
                         + T ** 2 * (1 + 3 * TAU + 4 * TAU ** 2 + 2 * TAU ** 3 + TAU ** 4))
    _report(4, "generating functions for orders 5..11 exact", t0, 5)


def test_criterion_05_eigenpair():
    from xtl.spinchain import verify_eigenpair
    t0 = time.time()
    for N in range(1, 11):
        for x in (Fraction(1), Fraction(2), Fraction(1, 3), Fraction(7, 5)):
            rep = verify_eigenpair(N, x)
            assert rep.residual_zero and rep.magnetization_ok and rep.normalization_ok, (N, x)
    _report(5, "eigenpair with zero residual, N <= 10, four x values", t0, 120)


def test_criterion_06_identity_suites():
    from xtl.sixvertex import check_yb_identities
    t0 = time.time()
    rep = check_yb_identities(trials=100, seed=42)
    bad = {k: v["failures"] for k, v in rep.items()
           if isinstance(v, dict) and v["failures"]}
    assert rep["passed"] and not bad, bad
    _report(6, "crossing/boundary/commutation/pairing identities, 100 points", t0, 120)


def test_criterion_07_vector_relations():
    from xtl.qkz import check_exchange_and_reflection, check_psi_reduction
    t0 = time.time()
    rng = ExactSampler(42)
    for N in range(2, 7):
        s, beta = rng.s_value(), rng.beta_value()
        for _ in range(20):
            zs = rng.z_point(N, s, beta)
            for i in range(1, N):
                assert check_exchange_and_reflection(N, i, zs, s, beta)["pass"], (N, i)
        for _ in range(20):
            zs = rng.z_point(N, s, beta)
            for i in range(1, N):
                assert check_psi_reduction(N, i, zs, s, beta)["pass"], (N, i)
    _report(7, "exchange/reflection/reduction, N <= 6, 20 points, all i", t0, 300)


def test_criterion_08_sum_property_suite():
    from xtl.qkz import check_Z_properties
    t0 = time.time()
    for N in range(2, 7):
        rep = check_Z_properties(N, trials=20, seed=42)
        assert rep.passed, (N, rep.failures[:2])
    _report(8, "generalized-sum property suite, N <= 6", t0, 300)


def test_criterion_09_dual_route_partition():
    from xtl.sixvertex import partition_algebraic_all_words, partition_enum_all_words
    t0 = time.time()
    rng = ExactSampler(42)
    for n in (1, 2, 3):
        for _ in range(20):
            s, t = rng.s_value(), rng.nonzero()
            zs = [rng.nonzero() for _ in range(2 * n)]
            enum = partition_enum_all_words(n, zs, s, t)
            alg = partition_algebraic_all_words(n, zs, s, t)
            assert set(enum) == set(alg) and len(enum) == 1 << (2 * n)
            for w in enum:
                assert enum[w] == alg[w], (n, w)
    # plus the stated alternating words at n = 4
    s, t = rng.s_value(), rng.nonzero()
    zs = [rng.nonzero() for _ in range(8)]
    from xtl.sixvertex import partition_algebraic, partition_enum
    for a in ("+", "-"):
        assert partition_enum(4, a, zs, s, t) == partition_algebraic(4, a, zs, s, t)
    _report(9, "dual-route partition functions, all words, n <= 3, 20 points", t0, 120)


def test_criterion_10_rescaled_sum_equals_rescaled_overlap():
    from xtl.theorems import check_Y_equals_YY
    t0 = time.time()
    for N in range(0, 7):
        rep = check_Y_equals_YY(N, trials=20, seed=42)
        assert rep.passed, (N, rep.failures[:1])
    _report(10, "rescaled sum equals rescaled overlap, N <= 6, 20 points", t0, 300)


def test_criterion_11_generating_function_lemma():
    from xtl.theorems import check_gf_lemma
    t0 = time.time()
    for n in (1, 2, 3):
        rep = check_gf_lemma(n, trials=20, seed=42)
        assert rep.passed, (n, rep.failures[:1])
    _report(11, "generating function from partition function, n <= 3, 20 points", t0, 120)


def test_criterion_12_main_theorem_and_corollaries():
    from xtl.theorems import check_corollaries, check_main_theorem
    t0 = time.time()
    for N in range(0, 9):  # stretch goal included
        rep = check_main_theorem(N)
        assert rep.passed, (N, rep.failures[:1])
    for N in range(0, 7):
        rep = check_corollaries(N)
        assert rep.passed, (N, rep.failures[:1])
    _report(12, "main theorem symbolic N <= 8; corollary chain", t0, 300)
