import functools
import importlib.util
import itertools
import json
import pathlib
import random
from fractions import Fraction

import pytest

from xtl import operators, sixvertex
from xtl.exact import (DegeneratePointError, DomainError, GaussianRational as G,
                       MultiLaurent as ML, UsageError, abscissa_sweep, bracket, brace,
                       div_exact_univar, gaussian_ints, interpolate_along, inv)
from xtl.operators import (Image, SpinVector, act, act_ints, basis_vector, image, r_bulk,
                           r_check_bulk, same_images)
from xtl.sampling import ExactSampler, half_sites
from xtl.sixvertex import (_column_steps, _transition_table, alpha_minus, alpha_plus,
                           check_yb_identities, config_weight, enumerate_configs,
                           overlap_ZZ, partition_algebraic,
                           partition_algebraic_all_words, partition_enum,
                           partition_enum_all_words, rescaled_YY)

DATA = pathlib.Path(__file__).resolve().parent / "data"

# fixed parameters; every test draws its points from a sampler of its own, so
# a test's point does not depend on which tests ran before it
_PARAMS = ExactSampler(101)
S = _PARAMS.s_value()
T = _PARAMS.nonzero()
B = _PARAMS.nonzero()
Q = S * S


def test_configuration_counts_match_published_figures():
    assert len(enumerate_configs(1, "-")) == 1
    assert len(enumerate_configs(1, "+")) == 2
    assert len(enumerate_configs(2, "-")) == 4
    assert len(enumerate_configs(2, "+")) == 13


def test_alpha_validation():
    with pytest.raises(UsageError):
        enumerate_configs(2, "uu")
    with pytest.raises(UsageError):
        enumerate_configs(2, "udx u")
    assert alpha_plus(2) == "udud" and alpha_minus(2) == "dudu"


def test_every_partition_route_refuses_size_below_one():
    # the empty staircase must not pass as the empty product 1 on one route only
    for n in (0, -1):
        for call in (lambda: partition_enum(n, "+", [], S, T),
                     lambda: partition_algebraic(n, "+", [], S, T),
                     lambda: partition_enum_all_words(n, [], S, T),
                     lambda: partition_algebraic_all_words(n, [], S, T)):
            with pytest.raises(UsageError, match="n must be >= 1"):
                call()


def _vertical_edges(config, alpha):
    """The vertical edges of a configuration, column by column bottom-up,
    decoded from its classes: the bottom edge is alpha's letter, and going up
    a column a turning bulk vertex (cp, cm) reverses the edge below it while
    a straight one (a, b) passes it on."""
    columns = []
    for letter, classes in zip(alpha, config):
        edges = ["U" if letter == "u" else "D"]
        for cls in classes[:-1]:  # the corner ends the column
            turns = cls in ("cp", "cm")
            edges.append({"U": "D", "D": "U"}[edges[-1]] if turns else edges[-1])
        columns.append(tuple(edges))
    return tuple(columns)


def test_dump_lines_are_distinct_and_sorted():
    # the canonical order: ascending in the vertical edges ('D' before 'U'),
    # which fix the configuration, so no two configurations tie
    words = [alpha_plus(3), alpha_minus(3)] + ["".join(w) for n in (1, 2)
                                               for w in itertools.product("ud", repeat=2 * n)]
    for word in words:
        edges = [_vertical_edges(c, word) for c in enumerate_configs(len(word) // 2, word)]
        assert len(set(edges)) == len(edges), word
        assert edges == sorted(edges), word


def test_size_one_partition_closed_forms_numeric():
    rng = ExactSampler(10101)
    z1, z2 = rng.nonzero(), rng.nonzero()
    zp = partition_enum(1, "+", [z1, z2], S, T)
    zm = partition_enum(1, "-", [z1, z2], S, T)
    assert zp == -T * bracket(Q * z1 * z2) * brace(S ** 3 * inv(z1)) * inv(brace(S))
    assert zm == T * bracket(Q * z1 * z2) * brace(S * z2) * inv(brace(S))


def test_size_one_partition_closed_form_symbolic_sites():
    zs = [ML.var("z1"), ML.var("z2")]
    got = partition_enum(1, "+", zs, S, T)
    want = -T * bracket(Q * zs[0] * zs[1]) * brace(S ** 3 * zs[0].inverse()) * inv(brace(S))
    assert got == want


def test_corner_and_bulk_weight_values():
    # n = 1, alpha = ud: corner (1, 1) is a source or sink (s), or transmits
    # (tm) into a turning bulk vertex (1, 2); the corner (2, 2) then transmits
    # (tp) or is a source or sink
    rng = ExactSampler(10102)
    z1, z2 = rng.nonzero(), rng.nonzero()
    weights = {c: config_weight(c, [z1, z2], S, T) for c in enumerate_configs(1, "+")}
    straight = brace(S * z1) * inv(brace(S)) * bracket(Q * inv(z1) * inv(z2)) * T
    turning = T * (-bracket(Q * Q)) * brace(S * z2) * inv(brace(S))
    assert weights == {(("s",), ("a", "tp")): straight, (("tm",), ("cp", "s")): turning}
    assert straight + turning == partition_enum(1, "+", [z1, z2], S, T)


def test_partition_enum_equals_sum_of_config_weights():
    rng = ExactSampler(10103)
    zs = [rng.nonzero() for _ in range(4)]
    total = None
    for c in enumerate_configs(2, "-"):
        w = config_weight(c, zs, S, T)
        total = w if total is None else total + w
    assert total == partition_enum(2, "-", zs, S, T)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dual_route_partition_functions(n):
    rng = ExactSampler(10110 + n)
    zs = [rng.nonzero() for _ in range(2 * n)]
    words = ["".join(w) for w in itertools.product("ud", repeat=2 * n)]
    if n == 3:
        words = random.Random(0).sample(words, 16) + [alpha_plus(3), alpha_minus(3)]
    for w in words:
        assert partition_enum(n, w, zs, S, T) == partition_algebraic(n, w, zs, S, T), w


def test_dual_route_alternating_words_n4():
    rng = ExactSampler(10104)
    zs = [rng.nonzero() for _ in range(8)]
    for a in ("+", "-"):
        assert partition_enum(4, a, zs, S, T) == partition_algebraic(4, a, zs, S, T)


def test_homogeneous_partition_is_generating_function_in_t():
    # symbolic corner weight: the normalized homogeneous partition function is
    # the full generating-function polynomial at tau = -{q}
    from xtl.tsasm import genfun
    tvar = ML.var("t")
    ones = [G(1)] * 4
    got = partition_enum(2, "-", ones, S, tvar) * inv(bracket(Q)) ** 6
    tau = -brace(Q)
    want = sum((c * tvar ** mu * tau ** nu for (mu, nu), c in genfun(4).terms.items()),
               ML(("t",)))
    assert got == want


def test_all_words_batch_matches_per_word():
    n = 2
    rng = ExactSampler(10105)
    zs = [rng.nonzero() for _ in range(4)]
    enum = partition_enum_all_words(n, zs, S, T)
    alg = partition_algebraic_all_words(n, zs, S, T)
    assert len(enum) == 16
    for w in ("udud", "dudu", "uudd", "dddd"):
        assert enum[w] == partition_enum(n, w, zs, S, T)
        assert alg[w] == partition_algebraic(n, w, zs, S, T)
        assert enum[w] == alg[w]


def _config_sum(n, word, zs):
    total = G(0)
    for c in enumerate_configs(n, word):
        total = total + config_weight(c, zs, S, T)
    return total


@pytest.mark.parametrize("n", [1, 2])
def test_all_words_equal_sums_of_config_weights(n):
    # a word whose configurations the pruning lost would read as a wrong zero
    rng = ExactSampler(n)
    zs = [rng.nonzero() for _ in range(2 * n)]
    enum = partition_enum_all_words(n, zs, S, T)
    words = ["".join(w) for w in itertools.product("ud", repeat=2 * n)]
    assert sorted(enum) == sorted(words)
    for w in words:
        assert enum[w] == _config_sum(n, w, zs), w


def test_alternating_words_n3_equal_sums_of_config_weights():
    rng = ExactSampler(3)
    zs = [rng.nonzero() for _ in range(6)]
    for a in (alpha_plus(3), alpha_minus(3)):
        assert partition_enum(3, a, zs, S, T) == _config_sum(3, a, zs), a


def test_dual_route_all_words_n4():
    rng = ExactSampler(404)
    s, t = rng.s_value(), rng.nonzero()
    zs = [rng.nonzero() for _ in range(8)]
    assert partition_enum_all_words(4, zs, s, t) == partition_algebraic_all_words(4, zs, s, t)


@pytest.mark.parametrize("letters", [tuple(alpha_plus(2)), tuple(alpha_minus(3)),
                                     ("ud",) * 4, ("ud",) * 6])
def test_transition_table_keeps_only_live_frontiers(letters):
    # forward: the kept frontiers of column c are exactly those reachable by
    # kept steps; backward: every kept step lands on a kept frontier of the
    # next column, or on the accepting frontier after the last one
    table = _transition_table(letters)
    n2 = len(letters)
    assert set(table[0]) == {()}
    for c, cols in enumerate(table):
        landed = {st[1] for steps in cols.values() for st in steps}
        nxt = set(table[c + 1]) if c + 1 < n2 else {("L",) * n2}
        assert landed == nxt
        for f, steps in cols.items():
            assert steps and all(st[0] in letters[c] for st in steps)
            want = [(ch,) + st for ch in letters[c] for st in _column_steps(f, ch)
                    if st[0] in nxt]
            assert steps == want


def _unpruned_table(letters, column_steps):
    """Reference: the column automaton built without the flux bound, by
    expanding every frontier the forward pass reaches and only then pruning
    backward to the live ones."""
    n2 = len(letters)
    trans = []
    frontiers = {()}
    for ls in letters:
        t = {f: [(ch,) + st for ch in ls for st in column_steps(f, ch)]
             for f in frontiers}
        trans.append(t)
        frontiers = {st[1] for steps in t.values() for st in steps}
    live = {("L",) * n2}
    for c in range(n2 - 1, -1, -1):
        kept = {}
        for f, steps in trans[c].items():
            good = [st for st in steps if st[1] in live]
            if good:
                kept[f] = good
        trans[c] = kept
        live = set(kept)
    return trans


def _assert_pruned_table_complete(letters, column_steps=_column_steps):
    # column by column as {frontier: steps} dicts: the order of a column's
    # frontiers follows set iteration, the order of a frontier's steps does not
    want = _unpruned_table(letters, column_steps)
    got = _transition_table.__wrapped__(letters)
    assert len(got) == len(want)
    for c, (g, w) in enumerate(zip(got, want)):
        assert g == w, (letters, c)


def test_pruned_table_equals_the_unpruned_reference_on_every_short_word():
    steps = functools.lru_cache(maxsize=None)(_column_steps)  # pure; shared by the 340 words
    for n2 in (2, 4, 6, 8):
        for word in itertools.product("ud", repeat=n2):
            _assert_pruned_table_complete(word, steps)


@pytest.mark.parametrize("letters", [tuple(a(k)) for k in range(1, 7)
                                     for a in (alpha_plus, alpha_minus)]
                         + [("ud",) * n2 for n2 in (2, 4, 6, 8)])
def test_pruned_table_equals_the_unpruned_reference(letters):
    _assert_pruned_table_complete(letters)


@pytest.mark.parametrize("letters", [tuple(alpha_plus(3)), tuple(alpha_minus(4)),
                                     ("ud",) * 6, tuple("uuddud")])
def test_forward_pass_expands_exactly_the_frontiers_within_the_flux_bound(
        monkeypatch, letters):
    # the "R" count of a frontier can fall by one only in a column that allows
    # d, so a frontier before column c survives iff its "R" count is at most
    # the number of columns c..2n that allow d; a looser bound still gives
    # the same table (the backward pass removes the rest) but expands more
    expanded = set()

    def spy(f, ch):
        expanded.add(f)
        return _column_steps(f, ch)

    monkeypatch.setattr(sixvertex, "_column_steps", spy)
    _transition_table.__wrapped__(letters)
    reachable = {()}
    want = set()
    for c, ls in enumerate(letters):
        budget = sum("d" in later for later in letters[c:])
        want |= {f for f in reachable if f.count("R") <= budget}
        reachable = {st[0] for f in reachable for ch in ls for st in _column_steps(f, ch)}
    assert expanded == want


def test_negative_control_negated_turning_weight(monkeypatch):
    # a wrong class weight in the automaton must break the dual-route agreement
    real = sixvertex._vertex_weights

    def negated_cp(zs, s, t):
        weight = real(zs, s, t)
        return lambda r, c, cls: -weight(r, c, cls) if cls == "cp" else weight(r, c, cls)

    monkeypatch.setattr(sixvertex, "_vertex_weights", negated_cp)
    rng = ExactSampler(5)
    for n in (2, 3):
        zs = [rng.nonzero() for _ in range(2 * n)]
        for a in ("+", "-"):
            assert partition_enum(n, a, zs, S, T) != partition_algebraic(n, a, zs, S, T), (n, a)
    zs = [rng.nonzero() for _ in range(4)]
    enum = partition_enum_all_words(2, zs, S, T)
    alg = partition_algebraic_all_words(2, zs, S, T)
    assert any(enum[w] != alg[w] for w in enum)


@pytest.mark.parametrize("n", [2, 3])
def test_single_word_stack_read_equals_the_all_words_entry(n):
    # partition_algebraic reduces one amplitude of the unreduced stack image,
    # partition_algebraic_all_words all of them; the same normal form either way
    rng = ExactSampler(10130 + n)
    zs = [G(rng.fraction(), rng.fraction()) for _ in range(2 * n)]
    every = partition_algebraic_all_words(n, zs, S, T)
    for a, word in (("+", alpha_plus(n)), ("-", alpha_minus(n))):
        got = partition_algebraic(n, a, zs, S, T)
        assert type(got) is G and repr(got) == repr(every[word]), (n, a)
        assert partition_algebraic(n, word, zs, S, T) == got


def _reference_overlap(n, ws, s, t, b):
    """The overlap as the covector's dot product with the reduced stack
    column, in GaussianRational arithmetic, as overlap_ZZ summed it before
    it paired the cleared covector with the unreduced column."""
    zs = half_sites(ws, False)
    cov = [G(1)]
    for w in zs[::2]:
        cov = sixvertex._tensor_cov(cov, sixvertex._nu_cov(w, s, b))
    column = sixvertex.apply_operator_stack(zs, s, t, basis_vector("d" * 2 * n))
    return sum((c * v for c, v in zip(cov, column) if c), G(0))


@pytest.mark.parametrize("n", [1, 2])
def test_overlap_equals_the_reduced_dot_product(n):
    rng = ExactSampler(10140 + n)
    for _ in range(3):
        ws = [G(rng.fraction(), rng.fraction()) for _ in range(n)]
        got = overlap_ZZ(n, ws, S, T, B)
        assert type(got) is G and repr(got) == repr(_reference_overlap(n, ws, S, T, B)), n


def test_dual_route_sees_a_doubled_corner_off_diagonal(monkeypatch):
    # the yang-baxter families cannot see this fault (see _PERTURBED); the
    # operator stack reads k_corner and the automaton does not
    monkeypatch.setattr(sixvertex, "k_corner",
                        _scaled(sixvertex.k_corner, {(0, 1), (1, 0)}, 2))
    rng = ExactSampler(3)
    s, t = rng.s_value(), rng.nonzero()
    zs = [rng.nonzero() for _ in range(4)]
    enum = partition_enum_all_words(2, zs, s, t)
    alg = partition_algebraic_all_words(2, zs, s, t)
    assert len(enum) == 16 and all(enum[w] != alg[w] for w in enum)


def test_overlap_closed_forms():
    w1 = ExactSampler(10106).w_point(2, S)[0]
    got = overlap_ZZ(1, [w1], S, T, B)
    assert got == T * bracket(S) * brace(B * inv(S)) * bracket(Q * Q * inv(w1) ** 2)
    assert rescaled_YY(1, [w1], S, T, B) == -T * brace(B * inv(S))
    assert overlap_ZZ(0, [], S, T, B) == G(1)
    assert rescaled_YY(0, [], S, T, B) == G(1)


def test_overlap_expands_over_pairing_words():
    # the overlap is the stated 2^n combination of half-specialized partition values
    n = 2
    ws = list(ExactSampler(10107).w_point(2 * n, S))
    zs = [ws[0], ws[0].inverse(), ws[1], ws[1].inverse()]
    cu = [bracket(inv(Q) * B * w) for w in ws]
    cd = [bracket(Q * B * inv(w)) for w in ws]
    total = G(0)
    for bits in itertools.product((0, 1), repeat=n):
        word = "".join("du" if b else "ud" for b in bits)
        coef = G(1)
        for i, b in enumerate(bits):
            coef = coef * (cd[i] if b else cu[i])
        total = total + coef * partition_enum(n, word, zs, S, T)
    assert total == overlap_ZZ(n, ws, S, T, B)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_overlap_symmetry_inversion_evenness(n):
    ws = list(ExactSampler(10120 + n).w_point(2 * n, S))
    z0 = overlap_ZZ(n, ws, S, T, B)
    assert overlap_ZZ(n, [-ws[0]] + ws[1:], S, T, B) == z0
    li = overlap_ZZ(n, [ws[0].inverse()] + ws[1:], S, T, B) * bracket(Q * Q * ws[0].inverse() ** 2)
    assert li == z0 * bracket(Q * Q * ws[0] ** 2)
    if n >= 2:
        sw = [ws[1], ws[0]] + ws[2:]
        assert overlap_ZZ(n, sw, S, T, B) == z0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_overlap_reduction_half_turn(n):
    ws = list(ExactSampler(10130 + n).w_point(2 * n, S))
    pt = ws[:-1] + [G(0, 1) * S]
    lhs = rescaled_YY(n, pt, S, T, B)
    rhs = T * brace(B * inv(S))
    if n % 2:
        rhs = -rhs
    for w in ws[:-1]:
        rhs = rhs * brace(S ** 3 * w) ** 2 * brace(S ** 3 * w.inverse()) ** 2
    rhs = rhs * rescaled_YY(n - 1, ws[:-1], S, T, B)
    assert lhs == rhs


@pytest.mark.parametrize("n", [2, 3])
def test_overlap_reduction_pair(n):
    ws = list(ExactSampler(10140 + n).w_point(2 * n, S))
    pt = list(ws)
    pt[n - 1] = ws[n - 2] * Q.inverse()
    w0 = ws[n - 2]
    lhs = rescaled_YY(n, pt, S, T, B)
    detk = T * T - (brace(S * inv(w0)) * inv(brace(S))) ** 2
    f = (-bracket(Q * Q) ** 2 * bracket(B * inv(w0)) * bracket(B * inv(Q) * w0)
         * brace(S * w0) * brace(S ** 3 * inv(w0)) * detk)
    for w in ws[:n - 2]:
        f = f * (bracket(Q * Q * inv(w0) * inv(w)) * bracket(Q * Q * inv(w0) * w)
                 * bracket(Q * w0 * w) * bracket(Q * w0 * inv(w))) ** 2
    assert lhs == f * rescaled_YY(n - 2, ws[:n - 2], S, T, B)


def overlap_ZZ_poly_in_w(n, ws, i, s, t, b):
    """The overlap as an exact Laurent polynomial in w_i (other arguments fixed),
    recovered by interpolation at distinct abscissae and cross-validated."""
    def value(x):
        pt = list(ws)
        pt[i - 1] = x
        return overlap_ZZ(n, pt, s, t, b)

    # every path through the stack meets 2(2n-2) crossings and 2 corners whose
    # entries have w_i-exponents in [-1, 1], and the covector adds one more
    h = 4 * n - 1
    return interpolate_along("w", abscissa_sweep(value), -h, h, 2)


@pytest.mark.parametrize("n", [2, 3])
def test_overlap_polynomial_width_bound(n):
    # even inversion-symmetric rescaled overlap of width at most 8(n-1)
    ws = list(ExactSampler(10150 + n).w_point(2 * n, S))
    poly = overlap_ZZ_poly_in_w(n, ws, 1, S, T, B)
    assert all(e[0] % 2 == 0 for e in poly.terms)
    den = bracket(S) ** n
    for w in ws[1:]:
        den = den * bracket(Q * Q * w.inverse() ** 2)
    sign = -1 if (n * (n + 1) // 2) % 2 else 1
    qw = ML(("w",), {(-2,): Q * Q, (2,): -(Q * Q).inverse()})  # [q^2/w^2]
    ypoly = div_exact_univar(poly, qw, "w") * (sign * den.inverse())
    r = ypoly.degree_range("w")
    assert r[0] == -r[1] and r[1] - r[0] <= 8 * (n - 1)
    assert all(ypoly.terms.get((-e[0],), 0) == c for e, c in ypoly.terms.items())


def test_yang_baxter_suite_passes():
    rep = check_yb_identities(trials=8, seed=6)
    assert rep["passed"], {k: v for k, v in rep.items()
                           if isinstance(v, dict) and v["failures"]}


def test_yang_baxter_check_refuses_zero_trials():
    for trials in (0, -2):
        with pytest.raises(UsageError):
            check_yb_identities(trials=trials, seed=6, max_stack_n=1)


def test_yang_baxter_check_refuses_no_stack_family():
    # max_stack_n < 1 would drop every stack_commutation family and still pass
    for msn in (0, -1):
        with pytest.raises(UsageError):
            check_yb_identities(trials=1, seed=6, max_stack_n=msn)


def _scaled(real, cells, factor):
    """real with the matrix entries at cells multiplied by factor."""
    def bad(*args):
        return tuple(tuple(v * factor if (r, c) in cells else v for c, v in enumerate(row))
                     for r, row in enumerate(real(*args)))
    return bad


def _nu_ud_doubled(w, s, b, real=sixvertex._nu_cov):
    uu, ud, du, dd = real(w, s, b)
    return [uu, ud * 2, du, dd]


# (binding in sixvertex, perturbed replacement, the families it must break);
# doubling the chi coefficient or swapping nu's ud/du entries is a symmetry of
# the identities and breaks nothing, so neither is a control.  Nor is doubling
# k_corner's off-diagonal: k(-i/s) has none, and k(1/w) k(-w/q) = det I
# holds under any common scaling of it, so only the dual-route partition
# functions see that fault (test_dual_route_sees_a_doubled_corner_off_diagonal)
_PERTURBED = [
    ("r_bulk", _scaled(sixvertex.r_bulk, {(1, 1), (2, 2)}, 2),
     {"yang_baxter_bulk", "boundary_yang_baxter_bulk",
      "stack_commutation_n1", "stack_commutation_n2"}),
    ("r_check_bulk", _scaled(sixvertex.r_check_bulk, {(3, 3)}, 2),
     {"yang_baxter_bulk", "boundary_yang_baxter_bulk", "stack_commutation_n1",
      "stack_commutation_n2", "braid_lowest_eigenaction", "nu_exchange"}),
    ("r_check_bulk", _scaled(sixvertex.r_check_bulk, {(1, 1), (2, 2)}, -1),
     {"yang_baxter_bulk", "boundary_yang_baxter_bulk", "stack_commutation_n1",
      "stack_commutation_n2", "nu_inversion"}),
    ("r_check_exchange", _scaled(sixvertex.r_check_exchange, {(1, 1), (2, 2)}, 2),
     {"yang_baxter_exchange", "chi_exchange", "chi_inversion"}),
    ("k_boundary", _scaled(sixvertex.k_boundary, {(1, 1)}, 2),
     {"boundary_yang_baxter_exchange"}),
    ("k_corner", _scaled(sixvertex.k_corner, {(0, 0), (1, 1)}, 2),
     {"corner_matrix_identities"}),
    ("_nu_cov", _nu_ud_doubled, {"nu_exchange", "nu_inversion"}),
]


@pytest.mark.parametrize("name, bad, broken", _PERTURBED,
                         ids=[f"{name}-{k}" for k, (name, _, _) in enumerate(_PERTURBED)])
def test_yang_baxter_families_fail_under_a_perturbed_operator(monkeypatch, name, bad, broken):
    monkeypatch.setattr(sixvertex, name, bad)
    rep = check_yb_identities(trials=2, seed=6, max_stack_n=2)
    failed = {k for k, v in rep.items() if isinstance(v, dict) and v["failures"]}
    assert not rep["passed"] and failed == broken
    for fam in broken:
        assert all(f["identity"] == fam for f in rep[fam]["failures"])


def test_every_yang_baxter_family_has_a_negative_control():
    rep = check_yb_identities(trials=1, seed=6, max_stack_n=2)
    families = {k for k, v in rep.items() if isinstance(v, dict)}
    assert set().union(*(broken for _, _, broken in _PERTURBED)) == families


def test_yang_baxter_trial_that_raises_is_resampled(monkeypatch):
    real, calls = sixvertex._ybe_bulk_trial, []

    def flaky(rng):
        calls.append(rng)
        if len(calls) == 1:
            raise DomainError("degenerate draw")
        return real(rng)

    monkeypatch.setattr(sixvertex, "_ybe_bulk_trial", flaky)
    rep = check_yb_identities(trials=2, seed=6, max_stack_n=1)
    assert rep["passed"]
    assert rep["yang_baxter_bulk"] == {"trials": 2, "resampled": 1, "failures": []}
    assert len(calls) == 3


def test_yang_baxter_trial_that_always_raises_fails(monkeypatch):
    def degenerate(rng):
        raise DegeneratePointError("always degenerate")

    monkeypatch.setattr(sixvertex, "_nu_inversion_trial", degenerate)
    rep = check_yb_identities(trials=1, seed=6, max_stack_n=1)
    fam = rep["nu_inversion"]
    assert not rep["passed"]
    assert fam["trials"] == 1 and fam["resampled"] == sixvertex._MAX_REDRAWS
    assert len(fam["failures"]) == 1


def test_stack_commutation_full_operator_n3():
    # operator-level equality on all 64 basis vectors, at one random point
    from xtl.sixvertex import apply_operator_stack
    rng = ExactSampler(55)
    s, t = rng.s_value(), rng.nonzero()
    zs = [rng.nonzero() for _ in range(6)]
    i = 3
    swap = [(r_check_bulk(zs[i - 1] * inv(zs[i]), s), i, i + 1)]
    zs_sw = list(zs)
    zs_sw[i - 1], zs_sw[i] = zs_sw[i], zs_sw[i - 1]
    for k in range(64):
        vec = [G(int(j == k)) for j in range(64)]
        lhs = act(apply_operator_stack(zs, s, t, vec), swap, 6)
        rhs = apply_operator_stack(zs_sw, s, t, act(vec, swap, 6))
        assert lhs == rhs, k


def test_stack_commutation_trial_builds_each_stack_once(monkeypatch):
    # one n = 2 trial builds the stack at zs and at the swapped zs once each,
    # 6 crossing and 4 corner matrices apiece, for all 16 basis vectors
    built = {"_stack_ops": 0, "r_bulk": 0, "k_corner": 0}
    for name in built:
        def counted(*args, name=name, real=getattr(sixvertex, name)):
            built[name] += 1
            return real(*args)

        monkeypatch.setattr(sixvertex, name, counted)
    lhs, rhs = sixvertex._stack_commutation_trial(ExactSampler(7), 2)
    assert built == {"_stack_ops": 2, "r_bulk": 12, "k_corner": 8}
    # each side is one unreduced image per basis vector, and the two sides
    # went through the same matrices, so they share one denominator and
    # their integers are equal as they stand
    for side in (lhs, rhs):
        assert type(side) is list and len(side) == 16
        assert all(type(p) is Image and len(p.re) == len(p.im) == 16 for p in side)
    assert len({p.d for p in lhs + rhs}) == 1
    assert lhs == rhs and same_images(lhs, rhs)


def test_failure_entries_record_the_reduced_sides():
    # a doubled (0, 0) entry of the lattice crossing matrix breaks the bulk
    # families; their failure entries hold the same lhs/rhs text as when the
    # trials compared reduced GaussianRational lists (written by that code)
    spec = importlib.util.spec_from_file_location("make_yb_failure_golden",
                                                  DATA / "make_yb_failure_golden.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    golden = json.loads((DATA / "yb_failure_golden.json").read_text())
    assert gen.failures() == golden
    for fam, fails in golden.items():
        assert len(fails) == 1 and fails[0]["lhs"] != fails[0]["rhs"], fam


def _unreduced(values):
    """values as an identity side over a denominator 6 times the least."""
    re, im, d = gaussian_ints(values)
    return Image([6 * a for a in re], [6 * b for b in im], 6 * d)


def test_unreduced_sides_compare_by_their_values():
    rng = ExactSampler(23)
    vals = [G(rng.fraction(), rng.fraction()) for _ in range(8)] + [G(0)]
    same, reduced = same_images, image(vals)
    lax = _unreduced(vals)
    assert lax.d != reduced.d and lax != reduced
    assert same(lax, reduced) and same(reduced, lax)
    # one amplitude off, in its real or its imaginary part, against a side
    # over another denominator and against one over the same
    for k in (0, 8):
        for part in ("re", "im"):
            off = getattr(lax, part)[:]
            off[k] += 1
            bad = lax._replace(**{part: off})
            for other in (reduced, lax):
                assert not same(bad, other) and not same(other, bad), (k, part, other.d)
    # every amplitude scaled by one constant, over the same or another denominator
    for c in (2, -1, G(0, 1)):
        assert not same(image(c * v for v in vals), reduced), c
        assert not same(_unreduced([c * v for v in vals]), reduced), c
    twice = reduced._replace(re=[2 * a for a in reduced.re], im=[2 * b for b in reduced.im])
    assert not same(twice, reduced)
    # lists and tuples of sides compare part by part
    assert same([lax, reduced], [reduced, lax]) and same((lax,), (reduced,))
    assert not same([lax, reduced], [reduced, twice])


def test_an_identity_side_off_by_one_amplitude_fails_its_family(monkeypatch):
    # the chi inversion trial's rhs, over another denominator than its lhs,
    # with one amplitude bumped by 1: the cross-multiplied comparison sees it
    real = sixvertex._chi_inversion_trial

    def bumped(rng):
        lhs, rhs = real(rng)
        assert lhs.d != rhs.d
        return lhs, rhs._replace(re=rhs.re[:-1] + [rhs.re[-1] + rhs.d])

    monkeypatch.setattr(sixvertex, "_chi_inversion_trial", bumped)
    rep = check_yb_identities(trials=2, seed=6, max_stack_n=1)
    failed = {k for k, v in rep.items() if isinstance(v, dict) and v["failures"]}
    assert failed == {"chi_inversion"}
    fails = rep["chi_inversion"]["failures"]
    assert len(fails) == 2 and all(f["lhs"] != f["rhs"] for f in fails)


def test_negative_control_corrupted_crossing_matrix():
    # a corrupted crossing entry must break the cubic consistency identity
    rng = ExactSampler(10108)
    s = rng.s_value()
    z, w = rng.nonzero(), rng.nonzero()
    rc = r_check_bulk(z * inv(w), s)
    bad = tuple(tuple(v * 2 if (r, c) == (0, 0) else v for c, v in enumerate(row))
                for r, row in enumerate(rc))
    assert bad != rc
    vec = [G(k % 7 - 3) for k in range(8)]
    sides = [lambda m: act(vec, [(r_bulk(w, s), 2, 3), (r_bulk(z, s), 1, 3), (m, 1, 2)], 3),
             lambda m: act(vec, [(m, 1, 2), (r_bulk(z, s), 2, 3), (r_bulk(w, s), 1, 3)], 3)]
    assert sides[0](rc) == sides[1](rc)
    assert sides[0](bad) != sides[1](bad)


# the GaussianRational loops that act replaced, kept as its reference
def _reference_one_site(vec, m2, site, L):
    shift = L - site
    mask = 1 << shift
    out = [0] * len(vec)
    m00, m01 = m2[0]
    m10, m11 = m2[1]
    for b, amp in enumerate(vec):
        if not amp:
            continue
        if b & mask:  # site is down
            if m01:
                out[b & ~mask] = out[b & ~mask] + m01 * amp
            if m11:
                out[b] = out[b] + m11 * amp
        else:
            if m00:
                out[b] = out[b] + m00 * amp
            if m10:
                out[b | mask] = out[b | mask] + m10 * amp
    return out


def _reference_two_site(vec, m4, i, j, L):
    si, sj = L - i, L - j
    cols = [[] for _ in range(4)]
    for row in range(4):
        for col in range(4):
            v = m4[row][col]
            if v:
                cols[col].append((row, v))
    out = [0] * len(vec)
    for b, amp in enumerate(vec):
        if not amp:
            continue
        col = (((b >> si) & 1) << 1) | ((b >> sj) & 1)
        base = b & ~((1 << si) | (1 << sj))
        for row, v in cols[col]:
            nb = base | ((row >> 1) << si) | ((row & 1) << sj)
            out[nb] = out[nb] + v * amp
    return out


def _reference_act(vec, ops, L):
    for op in ops:
        vec = (_reference_one_site(vec, *op, L) if len(op) == 2
               else _reference_two_site(vec, *op, L))
    return vec


def _random_entry(rnd):
    """0, an int, a Fraction or a Gaussian rational, with mixed denominators."""
    def frac():
        return Fraction(rnd.randint(-9, 9), rnd.choice((1, 2, 3, 4, 6, 9, 35)))

    kind = rnd.randrange(5)
    if kind == 0:
        return 0
    if kind == 1:
        return rnd.randint(-9, 9)
    return frac() if kind == 2 else G(frac(), frac())


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_act_equals_the_gaussian_rational_reference(L):
    rnd = random.Random(1000 + L)
    sites = [(i,) for i in range(1, L + 1)]
    sites += [(i, j) for i in range(1, L + 1) for j in range(1, L + 1) if i != j]
    for _ in range(30):
        vec = [rnd.choice((0, G(0))) if rnd.random() < 0.3 else G(0) + _random_entry(rnd)
               for _ in range(1 << L)]
        ops = []
        for _ in range(rnd.randint(1, 5)):
            where = rnd.choice(sites)
            k = 2 ** len(where)
            ops.append((tuple(tuple(_random_entry(rnd) for _ in range(k)) for _ in range(k)),)
                       + where)
        other = [G(0) + _random_entry(rnd) for _ in range(1 << L)]
        got = act(vec + other, ops, L)  # two vectors end to end
        want = _reference_act(vec, ops, L) + _reference_act(other, ops, L)
        # equal, and every amplitude a GaussianRational in normal form, so the
        # reprs agree with the reference's lifted to Q(i)
        assert got == want
        assert all(type(x) is G for x in got)
        assert [hash(x) for x in got] == [hash(x) for x in want]
        assert [repr(x) for x in got] == [repr(G(0) + x) for x in want]
        assert act(vec, ops, L) == got[:1 << L]
        # SpinVector.apply folds the same ops on the vector read as down
        # positions, the sparse kernel against the dense one
        sparse = SpinVector.make(L, {_downs(b, L): v for b, v in enumerate(vec)})
        for op in ops:
            sparse = sparse.apply(*op)
        assert sparse.amps == {_downs(b, L): v for b, v in enumerate(got[:1 << L]) if v}


def _downs(b, L):
    """The down-spin positions of basis index b on L sites."""
    return tuple(i for i in range(1, L + 1) if b >> (L - i) & 1)


def test_act_returns_gaussian_zeros_where_no_term_lands():
    # a sum that cancels and an amplitude that no term reaches are both
    # GaussianRational(0), where the reference leaves the second an int 0
    ops = [(((1, 1), (1, 1)), 2)]
    vec = [G(1), G(-1), 0, G(0)]
    got = act(vec, ops, 2)
    assert got == [0, 0, 0, 0] and [type(x) for x in got] == [G, G, G, G]
    assert [type(x) for x in _reference_act(vec, ops, 2)] == [G, G, int, int]


_M2 = ((1, 2), (3, 4))
_M4 = tuple(tuple(range(4 * r + 1, 4 * r + 5)) for r in range(4))
# (matrix, sites) on 3 sites, each refused before any arithmetic
_BAD_SITES = {
    "pair_past_the_end": (_M4, (3, 4)),
    "site_past_the_end": (_M2, (5,)),
    "site_L_plus_1": (_M2, (4,)),
    "site_0": (_M2, (0,)),
    "pair_from_0": (_M4, (0, 1)),
    "repeated_pair": (_M4, (1, 1)),
    "2x2_on_a_pair": (_M2, (1, 2)),
    "4x4_on_one_site": (_M4, (2,)),
}


@pytest.mark.parametrize("m, sites", _BAD_SITES.values(), ids=_BAD_SITES)
def test_an_operator_on_bad_sites_is_refused(m, sites):
    with pytest.raises(UsageError):
        act(basis_vector("udd"), [(_M2, 1), (m, *sites)], 3)
    with pytest.raises(UsageError):
        SpinVector.make(3, {(3,): 1, (1, 2): 2}).apply(m, *sites)


@pytest.mark.parametrize("i", [0, 4])
def test_a_singlet_on_bad_sites_is_refused(i):
    # (i, i+1) must be sites of the N + 2 = 4 site result
    with pytest.raises(UsageError):
        SpinVector.make(2, {(1,): 1}).insert_singlet(i)


@pytest.mark.parametrize("vec", [[G(1), G(5)], [G(k) for k in range(6)], []],
                         ids=["two_of_four", "six", "empty"])
def test_act_refuses_a_vector_that_is_not_whole_vectors(monkeypatch, vec):
    # on 2 sites a vector list must hold a positive multiple of 4 amplitudes;
    # anything else is refused before the vector is cleared
    def cleared(values):
        raise AssertionError("arithmetic before the length check")

    monkeypatch.setattr(operators, "gaussian_ints", cleared)
    for fn in (act, act_ints):
        with pytest.raises(UsageError):
            fn(vec, [(_M2, 2)], 2)


def test_act_refuses_symbolic_values():
    with pytest.raises(UsageError):
        act([G(1), ML.var("z")], [(((1, 0), (0, 1)), 1)], 1)
    with pytest.raises(UsageError):
        act([G(1), G(0)], [(((1, ML.var("z")), (0, 1)), 1)], 1)
