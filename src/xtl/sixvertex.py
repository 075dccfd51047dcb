"""The six-vertex model on a staircase-shaped square grid.

Geometry (size n): vertices (r, c) with 1 <= r <= c <= 2n; (r, c) with r < c
are degree-4 bulk vertices, (r, r) are degree-2 corners.  Column c carries a
vertical line entering from a bottom boundary vertex; row r carries a
horizontal line leaving to a right boundary vertex.  Horizontal line r is
weighted with the site value z_r, vertical line c with 1/z_c.

Edges and orientations:

* ``vedge[(r, c)]`` for 1 <= r <= c: the vertical edge below vertex (r, c);
  ``vedge[(1, c)]`` is the bottom boundary edge of column c.  Orientation
  'U' points up (towards larger r), 'D' points down.
* ``hedge[(r, c)]`` for r <= c <= 2n: the horizontal edge to the right of
  vertex (r, c); ``hedge[(r, 2n)]`` is the right boundary edge of row r,
  always 'L'.  Orientation 'R' points right, 'L' points left.

A configuration obeys the ice rule at every bulk vertex (two edges in, two
out), has all right boundary edges pointing left, and matches the bottom
boundary word alpha ('u'/'d' per column: 'u' = edge points up into the grid).

Enumeration walks the columns left to right with constraint propagation, so
partial orientations violating the ice rule or the boundary conditions are
pruned immediately.  The same column automaton drives both the explicit
configuration listing and the weighted sums (the partition functions, and
with monomial weights the TSASM generating function): both walk one
transition table, cut to the frontiers that can still reach the accepting
frontier (an ice-rule flux bound drops most dead ones as the forward pass
meets them, a backward pass the rest) and memoized per tuple of per-column
letter sets, and the sums form each vertex weight at most once per call.

A configuration is the tuple of its columns' vertex classes, as the
automaton steps carry them: config[c-1][r-1] is the class of vertex (r, c),
the corner (c, c) last in its column.  The classes fix every edge, and
enumerate_configs lists the configurations in canonical order: ascending in
their vertical edges read column by column, bottom-up, with 'D' before 'U'.
That order is total because the vertical edges alone fix a configuration:
reading the ice rule right to left from the all-'L' right boundary, the
right, lower and upper edges of a bulk vertex leave its left edge one
choice, and that edge is the right edge of the vertex to its left, a bulk
vertex or the row's corner.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import product
from operator import mul
from typing import Sequence

from .exact import DomainError, GaussianRational, UsageError, bracket, brace, inv
from .operators import (Image, act, act_covector, act_ints, basis_vector, chi_covector, image,
                        index_word, k_boundary, k_corner, r_bulk, r_check_bulk,
                        r_check_exchange, reduced_images, same_images, word_index)
from .sampling import ExactSampler, half_sites

__all__ = [
    "alpha_plus", "alpha_minus", "enumerate_configs",
    "config_weight", "partition_enum", "partition_algebraic",
    "partition_enum_all_words", "partition_algebraic_all_words",
    "apply_operator_stack", "overlap_ZZ", "rescaled_YY", "yy_divisor",
    "check_yb_identities",
]


def alpha_plus(n: int) -> str:
    return "ud" * n


def alpha_minus(n: int) -> str:
    return "du" * n


def _bulk_class(lin: bool, bin_: bool, rin: bool, tin: bool) -> str:
    """Ice-rule class of a bulk vertex from which of its left, bottom, right
    and top edges point in: 'a' (straight, weight [q/(z_r z_c)]), 'b'
    (straight, weight [q z_r z_c]), 'cp' / 'cm' (turning, weight -[q^2])."""
    k = lin + bin_ + rin + tin
    if k != 2:
        raise DomainError("ice rule violated")
    if lin and rin:
        return "cp"
    if bin_ and tin:
        return "cm"
    if lin == tin:
        return "b"
    return "a"


def _corner_class(bin_: bool, rin: bool) -> str:
    """Class of a corner from whether its bottom and right edges point in:
    'tp' (+1 transmitting), 'tm' (-1 transmitting), both weight t, or 's'
    (source or sink, weight {s z_r}/{s})."""
    if bin_ and not rin:
        return "tm"
    if rin and not bin_:
        return "tp"
    return "s"


def _check_alpha(n: int, alpha: str) -> str:
    if alpha == "+":
        return alpha_plus(n)
    if alpha == "-":
        return alpha_minus(n)
    if len(alpha) != 2 * n or any(ch not in "ud" for ch in alpha):
        raise UsageError(f"alpha must be a word over u/d of length {2 * n}")
    return alpha


# ---------------------------------------------------------------------------
# the column automaton
# ---------------------------------------------------------------------------

def _column_steps(frontier: tuple, alpha_c: str):
    """All ways to orient column c (len(frontier)+1 = c) given the incoming
    horizontal edges.  Returns (new_frontier, vlist, classes) triples; vlist is
    the column's vertical edge orientations bottom-up and classes the vertex
    classes bottom-up (bulk ... bulk, corner last).  Not memoized: only
    _transition_table calls it, once per (frontier, letter) of one build."""
    c = len(frontier) + 1
    out = []

    def walk(r, below, newh, vlist, classes):
        if r == c:
            # corner: below edge fixed, right edge free
            bin_ = below == "U"
            for h in ("L", "R"):
                out.append((tuple(newh + [h]), tuple(vlist),
                            tuple(classes + [_corner_class(bin_, h == "L")])))
            return
        lin = frontier[r - 1] == "R"
        bin_ = below == "U"
        need = 2 - lin - bin_
        # choose (right-in, top-in) with rin + tin == need
        for rin in (True, False):
            tin_count = need - rin
            if tin_count not in (0, 1):
                continue
            tin = bool(tin_count)
            h = "L" if rin else "R"
            v = "D" if tin else "U"
            walk(r + 1, v, newh + [h], vlist + [v],
                 classes + [_bulk_class(lin, bin_, rin, tin)])

    walk(1, "U" if alpha_c == "u" else "D", [], [], [])
    return out


@lru_cache(maxsize=None)
def _transition_table(letters: tuple) -> tuple:
    """The pruned column automaton for bottom words with letters[c-1] allowed
    in column c.  Entry c-1 maps each live frontier before column c to its
    (letter, new_frontier, vlist, classes) steps; a frontier is live when it is
    reachable from the empty frontier and reaches the accepting frontier
    ("L",)*2n, and a step is kept when it leads to a live frontier.  Pure in
    the geometry, so memoized: count_from_partition and repeated
    partition_enum calls reuse one table.

    Most reachable frontiers are dead, and the forward pass drops them by a
    flux bound before expanding them.  Sum the ice rule over the c-1 bulk
    vertices of column c >= 2: every inner vertical edge enters exactly one
    of them, so with k and k' the "R" edges entering and leaving those rows,

        k + (c-1 - k') + (c-2) + [letter u] + [edge below the corner D] = 2(c-1),

    that is k' = k - 1 + [letter u] + [edge below the corner D].  Adding the
    corner's own new edge, the "R" count of the frontier falls by at most one
    per column, and only in a column whose letter is d (then the corner's new
    edge is "L"); column 1, the corner alone, starts from the empty frontier.
    The accepting frontier has no "R", so a frontier with more "R" edges than
    later columns that allow d is dead.  The backward pass still removes the
    dead frontiers the bound does not see, so the table is the same live set
    either way."""
    n2 = len(letters)
    # later_d[c - 1]: how many columns after column c allow the letter d
    later_d = [sum("d" in ls for ls in letters[c:]) for c in range(1, n2 + 1)]
    trans: list[dict] = []
    frontiers = {()}
    for ls, budget in zip(letters, later_d):
        t = {f: [(ch,) + st for ch in ls for st in _column_steps(f, ch)
                 if st[0].count("R") <= budget]
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
    return tuple(trans)


def enumerate_configs(n: int, alpha: str) -> list:
    """All configurations with bottom word alpha, in canonical order (see the
    module docstring).  Every path of the transition table is one
    configuration, its class tuples the steps' own, and the paths are sorted
    by their steps' vertical edges.  The walk alone does not give that order:
    two steps from one frontier can share their vertical edges and differ in
    the corner's right edge, so their subtrees interleave."""
    if n < 1:
        raise UsageError("n must be >= 1")
    trans = _transition_table(tuple(_check_alpha(n, alpha)))
    paths = []

    def walk(c, frontier, vlists, classes):
        if c == len(trans):
            paths.append((vlists, classes))
            return
        for _, newf, vlist, cls in trans[c].get(frontier, ()):
            walk(c + 1, newf, vlists + (vlist,), classes + (cls,))

    walk(0, (), (), ())
    paths.sort(key=lambda path: path[0])
    return [classes for _, classes in paths]


# ---------------------------------------------------------------------------
# weights and partition functions
# ---------------------------------------------------------------------------

def _vertex_weights(zs: Sequence, s, t):
    """The weight of a vertex as a callable (r, c, cls) -> value, corners at
    c = r.  The turning classes cp/cm share one weight and the transmitting
    corners tp/tm share t; the others depend on the site values and are each
    formed on first use, then reused for the rest of the call."""
    q = s * s
    cweight = -bracket(q * q)
    sbrace_inv = inv(brace(s))
    shared = {"cp": cweight, "cm": cweight, "tp": t, "tm": t}
    memo: dict = {}

    def weight(r, c, cls):
        w = shared.get(cls)
        if w is None:
            key = (r, c, cls)
            w = memo.get(key)
            if w is None:
                if cls == "a":
                    w = bracket(q * inv(zs[r - 1]) * inv(zs[c - 1]))
                elif cls == "b":
                    w = bracket(q * zs[r - 1] * zs[c - 1])
                else:
                    w = brace(s * zs[r - 1]) * sbrace_inv
                memo[key] = w
        return w

    return weight


def config_weight(config: tuple, zs: Sequence, s, t):
    """Product of the local weights of all bulk and corner vertices.

    Site values may be exact scalars or invertible monomials, so the result is
    an exact scalar or a MultiLaurent.
    """
    if len(zs) != len(config):
        raise UsageError(f"need {len(config)} site values")
    weight = _vertex_weights(zs, s, t)
    return reduce(mul, (weight(r, c, cls) for c, classes in enumerate(config, start=1)
                        for r, cls in enumerate(classes, start=1)))


def _automaton_sums(letters: tuple, weight, one) -> dict:
    """Weighted configuration sums of the column automaton, one per bottom
    word; column c may take any letter of letters[c-1].  A vertex (r, c) of
    class cls weighs weight(r, c, cls), a value of the ring with unit one:
    brackets for the partition functions, packed ints for the generating
    function.  The state after each column is keyed by (frontier, word
    prefix); only the live frontiers of _transition_table are walked, and each
    column's weight is formed once per transition before it multiplies the
    prefix sums."""
    states: dict = {(): {"": one}}
    for c, table in enumerate(_transition_table(letters), start=1):
        new: dict = {}
        for frontier, prefixes in states.items():
            for ch, newf, _, classes in table.get(frontier, ()):
                f = weight(c, c, classes[-1])
                for r, cls in enumerate(classes[:-1], start=1):
                    f = f * weight(r, c, cls)
                slot = new.setdefault(newf, {})
                for word, acc in prefixes.items():
                    key = word + ch
                    cur = slot.get(key)
                    slot[key] = f * acc if cur is None else cur + f * acc
        states = new
    return states.get(("L",) * len(letters), {})


def _check_sites(n: int, zs: Sequence) -> None:
    if n < 1:
        raise UsageError("n must be >= 1")
    if len(zs) != 2 * n:
        raise UsageError(f"need {2 * n} site values")


def partition_enum(n: int, alpha: str, zs: Sequence, s, t):
    """Partition function by summing configuration weights (column automaton
    with per-frontier aggregation; identical to the sum over enumerate_configs)."""
    _check_sites(n, zs)
    alpha = _check_alpha(n, alpha)
    sums = _automaton_sums(tuple(alpha), _vertex_weights(zs, s, t), GaussianRational(1))
    return sums.get(alpha, GaussianRational(0))


def partition_enum_all_words(n: int, zs: Sequence, s, t) -> dict:
    """Partition functions for every bottom boundary word at once, by the same
    column automaton with the bottom edges left free.  Returns {word: value}."""
    _check_sites(n, zs)
    out = _automaton_sums(("ud",) * (2 * n), _vertex_weights(zs, s, t), GaussianRational(1))
    zero = GaussianRational(0)
    return {"".join(w): out.get("".join(w), zero) for w in product("ud", repeat=2 * n)}


# ---------------------------------------------------------------------------
# the operator stack
# ---------------------------------------------------------------------------

def apply_operator_stack(zs: Sequence, s, t, vec: list) -> list:
    """Apply the full row-transfer operator for site values zs to a dense vector.

    The stack is the ordered product over rows j = 1..2n of (corner matrix on
    site j) times (crossing matrices coupling j to each k > j); factors act on
    the vector right to left, i.e. row 2n first, and within a row the crossing
    with the largest k first.
    """
    return act(vec, _stack_ops(zs, s, t), len(zs))


def _stack_ops(zs: Sequence, s, t) -> list:
    """The factors of the stack as act operators, in the order they act."""
    L = len(zs)
    ops = []
    for j in range(L, 0, -1):
        ops += [(r_bulk(zs[j - 1] * zs[k - 1], s), j, k) for k in range(L, j, -1)]
        ops.append((k_corner(zs[j - 1], s, t), j))
    return ops


def _stack_column(zs: Sequence, s, t) -> Image:
    """The stack applied to |dd...d>, unreduced: amplitude b is
    <b| stack |dd...d>."""
    return act_ints(basis_vector("d" * len(zs)), _stack_ops(zs, s, t), len(zs))


def partition_algebraic(n: int, alpha: str, zs: Sequence, s, t):
    """Partition function as the matrix element <alpha| stack |dd...d>; of
    the stack's image only this amplitude is reduced."""
    _check_sites(n, zs)
    return _stack_column(zs, s, t).amplitude(word_index(_check_alpha(n, alpha)))


def partition_algebraic_all_words(n: int, zs: Sequence, s, t) -> dict:
    """Matrix elements <word| stack |dd...d> for every word, from one stack
    application."""
    _check_sites(n, zs)
    column = apply_operator_stack(zs, s, t, basis_vector("d" * 2 * n))
    return {index_word(b, 2 * n): v for b, v in enumerate(column)}


def overlap_ZZ(n: int, ws: Sequence, s, t, b):
    """The boundary overlap: the two-row covector built from b, the tensor
    product of _nu_cov(w_i), paired with the operator stack at the
    pairwise-inverted site values (w_1, 1/w_1, ...); the pairing reads the
    unreduced stack column and reduces only the sum."""
    if n < 0:
        raise UsageError("n must be >= 0")
    if n == 0:
        return GaussianRational(1)
    if len(ws) != n:
        raise UsageError(f"need {n} site values")
    zs = half_sites(ws, False)
    cov = [GaussianRational(1)]
    for w in zs[::2]:  # w_1, ..., w_n
        cov = _tensor_cov(cov, _nu_cov(w, s, b))
    return _stack_column(zs, s, t).paired(cov)


def yy_divisor(ws: Sequence, s) -> GaussianRational:
    """The w-dependent normalization prod [q^2/w_i^2] of rescaled_YY."""
    q = s * s
    d = GaussianRational(1)
    for w in ws:
        d = d * bracket(q * q * inv(w) ** 2)
    return d


def rescaled_YY(n: int, ws: Sequence, s, t, b):
    """The overlap divided by (-1)^(n(n+1)/2) normalizations [s]^n prod [q^2/w_i^2]."""
    z = overlap_ZZ(n, ws, s, t, b)
    if n == 0:
        return z
    den = yy_divisor(ws, s)
    if not den:
        raise DomainError("rescaling undefined: [q^2/w_i^2] = 0")
    sign = -1 if (n * (n + 1) // 2) % 2 else 1
    return z * inv(bracket(s) ** n * den) * sign


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

_MAX_REDRAWS = 20  # draws per trial before check_yb_identities reports a failure


def check_yb_identities(trials: int = 100, seed: int = 42, max_stack_n: int = 3) -> dict:
    """Exact verification of the crossing/boundary consistency identities at
    random nondegenerate points.  Each trial returns the two sides of its
    identity unreduced, as an Image or a list or tuple of them, and
    same_images compares them.  Returns {family: {trials, resampled,
    failures: [...]}} and "passed"; a failure records the family and both
    sides, reduced, or the error.
    """
    if trials < 1 or max_stack_n < 1:
        raise UsageError("trials and max_stack_n must be at least 1")
    rng = ExactSampler(seed)
    report: dict = {}

    def run(name, fn):
        # a trial that raises DomainError drew a degenerate point: redraw it
        fails, resampled = [], 0
        for _ in range(trials):
            for _ in range(_MAX_REDRAWS):
                try:
                    lhs, rhs = fn(rng)
                    break
                except DomainError:
                    resampled += 1
            else:
                fails.append({"identity": name, "error":
                              f"no nondegenerate point in {_MAX_REDRAWS} draws"})
                continue
            if not same_images(lhs, rhs):
                fails.append({"identity": name, "lhs": repr(reduced_images(lhs)),
                              "rhs": repr(reduced_images(rhs))})
        report[name] = {"trials": trials, "resampled": resampled, "failures": fails}

    run("yang_baxter_bulk", _ybe_bulk_trial)
    run("boundary_yang_baxter_bulk", _bybe_bulk_trial)
    run("yang_baxter_exchange", _ybe_exchange_trial)
    run("boundary_yang_baxter_exchange", _bybe_exchange_trial)
    for n in range(1, max_stack_n + 1):
        run(f"stack_commutation_n{n}", lambda rng, n=n: _stack_commutation_trial(rng, n))
    run("chi_exchange", _chi_exchange_trial)
    run("nu_exchange", _nu_exchange_trial)
    run("chi_inversion", _chi_inversion_trial)
    run("nu_inversion", _nu_inversion_trial)
    run("braid_lowest_eigenaction", _braid_lowest_trial)
    run("corner_matrix_identities", _corner_matrix_trial)
    report["passed"] = all(not v["failures"] for v in report.values())
    return report


def _ybe_bulk_trial(rng):
    s = rng.s_value()
    z, w = rng.nonzero(), rng.nonzero()
    rc = r_check_bulk(z * inv(w), s)
    vec = rng.dense_vector(3)
    return (act_ints(vec, [(r_bulk(w, s), 2, 3), (r_bulk(z, s), 1, 3), (rc, 1, 2)], 3),
            act_ints(vec, [(rc, 1, 2), (r_bulk(z, s), 2, 3), (r_bulk(w, s), 1, 3)], 3))


def _bybe_bulk_trial(rng):
    s, t = rng.s_value(), rng.nonzero()
    z, w = rng.nonzero(), rng.nonzero()
    rc = r_check_bulk(z * inv(w), s)
    rp = r_bulk(z * w, s)
    vec = rng.dense_vector(2)
    kz, kw = k_corner(z, s, t), k_corner(w, s, t)
    return (act_ints(vec, [(kw, 2), (rp, 1, 2), (kz, 1), (rc, 1, 2)], 2),
            act_ints(vec, [(rc, 1, 2), (kz, 2), (rp, 1, 2), (kw, 1)], 2))


def _ybe_exchange_trial(rng):
    s = rng.s_value()
    z1, z2, z3 = (rng.nonzero() for _ in range(3))
    r12a = r_check_exchange(z1 * inv(z2), s)
    r13 = r_check_exchange(z1 * inv(z3), s)
    r23b = r_check_exchange(z2 * inv(z3), s)
    vec = rng.dense_vector(3)
    return (act_ints(vec, [(r23b, 2, 3), (r13, 1, 2), (r12a, 2, 3)], 3),
            act_ints(vec, [(r12a, 1, 2), (r13, 2, 3), (r23b, 1, 2)], 3))


def _bybe_exchange_trial(rng):
    s, beta = rng.s_value(), rng.beta_value()
    z1, z2 = rng.nonzero(), rng.nonzero()
    ra = r_check_exchange(z1 * inv(z2), s)
    rb = r_check_exchange(z1 * z2, s)
    k1 = k_boundary(z1, beta)
    k2 = k_boundary(z2, beta)
    vec = rng.dense_vector(2)
    return (act_ints(vec, [(k2, 1), (rb, 1, 2), (k1, 1), (ra, 1, 2)], 2),
            act_ints(vec, [(ra, 1, 2), (k1, 1), (rb, 1, 2), (k2, 1)], 2))


def _stack_commutation_trial(rng, n):
    """Braid matrix at (z_i / z_{i+1}) intertwines stacks with swapped sites:
    on every basis vector for n < 3, on three random vectors from n = 3."""
    s, t = rng.s_value(), rng.nonzero()
    n2 = 2 * n
    zs = [rng.nonzero() for _ in range(n2)]
    i = rng.randint(1, n2 - 1)
    rc = r_check_bulk(zs[i - 1] * inv(zs[i]), s)
    zs_sw = list(zs)
    zs_sw[i - 1], zs_sw[i] = zs_sw[i], zs_sw[i - 1]
    vecs = ([rng.dense_vector(n2) for _ in range(3)] if n >= 3 else
            [[GaussianRational(int(j == k)) for j in range(1 << n2)] for k in range(1 << n2)])
    swap = [(rc, i, i + 1)]
    stack, stack_sw = _stack_ops(zs, s, t), _stack_ops(zs_sw, s, t)
    # one act_ints call per side takes all the vectors end to end; both
    # sides go through the same matrices, so they share a denominator
    flat, size = [x for v in vecs for x in v], 1 << n2
    sides = act_ints(flat, stack + swap, n2), act_ints(flat, swap + stack_sw, n2)
    return tuple([Image(re[k:k + size], im[k:k + size], d) for k in range(0, len(re), size)]
                 for re, im, d in sides)


def _chi_exchange_trial(rng):
    s = rng.s_value()
    z, w = rng.nonzero(), rng.nonzero()
    r_zw = r_check_exchange(z * w, s)
    r_zbw = r_check_exchange(z * inv(w), s)
    cov_l = _tensor_cov(chi_covector(w, s), chi_covector(z, s))
    cov_r = _tensor_cov(chi_covector(z, s), chi_covector(w, s))
    return (act_covector(cov_l, [(r_zw, 2, 3), (r_zbw, 1, 2)], 4),
            act_covector(cov_r, [(r_zw, 2, 3), (r_zbw, 3, 4)], 4))


def _nu_exchange_trial(rng):
    s, b = rng.s_value(), rng.nonzero()
    z, w = rng.nonzero(), rng.nonzero()
    q = s * s

    def r(x):
        return bracket(q * q * x) * bracket(q * q * inv(x))

    cov_l = _tensor_cov(_nu_cov(w, s, b), _nu_cov(z, s, b))
    cov_r = _tensor_cov(_nu_cov(z, s, b), _nu_cov(w, s, b))
    lhs = act_covector(cov_l, [(r_check_bulk(z * w, s), 2, 3),
                               (r_check_bulk(z * inv(w), s), 1, 2),
                               (r_check_bulk(inv(z) * w, s), 3, 4),
                               (r_check_bulk(inv(z) * inv(w), s), 2, 3)], 4)
    scale = r(z * w) * r(z * inv(w))
    return lhs, image(scale * x for x in cov_r)


def _chi_inversion_trial(rng):
    s = rng.s_value()
    z = rng.nonzero()
    rc = r_check_exchange(z * z, s)
    lhs = act_covector(chi_covector(inv(z), s), [(rc, 1, 2)], 2)
    fac = bracket(inv(s) * inv(z)) * inv(bracket(inv(s) * z))
    return lhs, image(fac * x for x in chi_covector(z, s))


def _nu_inversion_trial(rng):
    s, b = rng.s_value(), rng.nonzero()
    z = rng.nonzero()
    q = s * s
    lhs = act_covector(_nu_cov(inv(z), s, b), [(r_check_bulk(z * z, s), 1, 2)], 2)
    fac = bracket(q * q * z * z)
    return lhs, image(fac * x for x in _nu_cov(z, s, b))


def _braid_lowest_trial(rng):
    s = rng.s_value()
    z = rng.nonzero()
    q = s * s
    vec = basis_vector("dd")
    lam = bracket(q * q * inv(z) * inv(z))
    return (act_ints(vec, [(r_check_bulk(z * z, s), 1, 2)], 2),
            image(lam * x for x in vec))


def _corner_matrix_trial(rng):
    """k_corner at -i/s is t times the identity, and k(1/w) k(-w/q) is
    det k(1/w) times the identity, on both basis vectors end to end."""
    s, t = rng.s_value(), rng.nonzero()
    w = rng.nonzero()
    q = s * s
    k = k_corner(inv(w), s, t)
    det = k[0][0] * k[1][1] - k[0][1] * k[1][0]
    vec = basis_vector("u") + basis_vector("d")
    return ((act_ints(vec, [(k_corner(-GaussianRational(0, 1) * inv(s), s, t), 1)], 1),
             act_ints(vec, [(k_corner(-inv(q) * w, s, t), 1), (k, 1)], 1)),
            (image(t * x for x in vec), image(det * x for x in vec)))


def _nu_cov(w, s, b):
    """Dense coefficients [uu, ud, du, dd] of the two-site factor of the
    boundary covector: [b w / q] on ud and [q b / w] on du."""
    q = s * s
    zero = GaussianRational(0)
    return [zero, bracket(inv(q) * b * w), bracket(q * b * inv(w)), zero]


def _tensor_cov(a, b):
    return [x * y for x in a for y in b]
