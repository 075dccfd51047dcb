"""End-to-end verification of the bridging results.

Each checker cross-validates independently implemented quantities: contour
extraction (component sums), staircase enumeration (generating functions),
residue sums with pairing covectors (generalized sums), and operator-stack
matrix elements (overlaps).  A check passes only when the compared values are
exactly equal; failures carry the witnesses.
"""

from __future__ import annotations

from .contour import ChainShape, sum_components, tsasm_count_integral
from .exact import GaussianRational, MultiLaurent, bracket, brace, inv
from .sampling import TheoremReport, _sampled
from .sixvertex import rescaled_YY
from .tsasm import _lemma_point, _staircase, enumerate_tsasm, genfun

__all__ = ["check_relation_SZ", "check_Y_equals_YY",
           "check_gf_lemma", "check_main_theorem", "check_corollaries"]


def _xtau(s, beta):
    q = s * s
    return -bracket(beta * q) * inv(bracket(beta)), -brace(q)


def check_relation_SZ(N: int, trials: int = 20, seed: int = 42) -> TheoremReport:
    """The homogeneous generalized sum reproduces the component-sum polynomial
    after the elementary rescaling, with x and tau induced by (q, beta)."""
    from .qkz import gen_sum_Z

    rep, rng = _sampled("relation_sum_generalized_sum", trials, seed, N=N)
    shape = ChainShape.of(N)
    n, npr = shape.n, shape.nprime
    spoly = sum_components(N)
    for _ in range(trials):
        s, beta = rng.s_value(), rng.beta_value()
        x, tau = _xtau(s, beta)
        zval = gen_sum_Z(N, [GaussianRational(1)] * n, s, beta)
        resc = (inv(bracket(beta)) ** n
                * inv(bracket(s * s)) ** (n * (n - 1) + npr * (npr - 1)))
        if (npr * (npr - 1) // 2) % 2:
            resc = -resc
        lhs = spoly.eval_at({"x": x, "tau": tau})
        if lhs != resc * zval:
            rep.fail(point={"s": s, "beta": beta}, lhs=lhs, rhs=resc * zval)
    return rep


def check_Y_equals_YY(N: int, trials: int = 20, seed: int = 42) -> TheoremReport:
    """The rescaled generalized sum equals the rescaled overlap once the corner
    weight is set to -{beta q^{1/2}}/{q^{1/2}} and the pairing parameter to q
    (even size) or 1/q (odd size)."""
    from .qkz import rescaled_Y

    rep, rng = _sampled("rescaled_sum_equals_rescaled_overlap", trials, seed, N=N)
    n = N // 2
    for _ in range(trials):
        s, beta = rng.s_value(), rng.beta_value()
        q = s * s
        t = -brace(beta * s) * inv(brace(s))
        b = q if N % 2 == 0 else inv(q)
        ws = list(rng.w_point(N, s))
        lhs = rescaled_Y(N, ws, s, beta)
        rhs = rescaled_YY(n, ws, s, t, b)
        if lhs != rhs:
            rep.fail(point={"s": s, "beta": beta, "w": ws}, lhs=lhs, rhs=rhs)
    return rep


def check_gf_lemma(n: int, trials: int = 20, seed: int = 42) -> TheoremReport:
    """The homogeneous staircase partition function reproduces the generating
    function at tau = -{q}, for both boundary parities of size n."""
    rep, rng = _sampled("generating_function_from_partition", trials, seed, 1, n=n)
    cases = [(N, _staircase(N)[1]) for N in (2 * n, 2 * n + 1)]
    gfs = {N: genfun(N) for N, _ in cases}
    for _ in range(trials):
        s, t = rng.s_value(), rng.nonzero()
        for N, alpha in cases:
            tau, rhs = _lemma_point(n, alpha, s, t)
            lhs = gfs[N].eval_at({"t": t, "tau": tau})
            if lhs != rhs:
                rep.fail(point={"s": s, "t": t, "N": N}, lhs=lhs, rhs=rhs)
    return rep


def _replace_t(gf: MultiLaurent, t_power, tau, vars=("x", "tau")) -> MultiLaurent:
    """The generating function gf in (t, tau) with each t^mu replaced by
    t_power(mu) and tau by the given (symbolic or exact) tau, summed from the
    zero polynomial over vars.  A negative exponent is an internal error."""
    out = MultiLaurent.const(0, vars)
    for (mu, nu), c in gf.sorted_terms():
        if mu < 0 or nu < 0:
            raise RuntimeError(f"generating-function exponent negative: {(mu, nu)}")
        out = out + c * t_power(mu) * tau ** nu
    return out


def _weighted_enumeration(gf: MultiLaurent, n: int, tau) -> MultiLaurent:
    """The generating function with t-powers replaced by
    (1+x)^mu (1+x(x-tau))^((n-mu)/2) tau^nu, at a symbolic or given tau.

    The exponent (n-mu)/2 is an integer because every mu in the generating
    function has the parity of n; a violation is an internal error.
    """
    x = MultiLaurent.var("x")
    base = 1 + x * (x - tau)

    def t_power(mu):
        if (n - mu) % 2 or mu > n:
            raise RuntimeError(f"generating-function exponent parity violated: mu = {mu}")
        return (1 + x) ** mu * base ** ((n - mu) // 2)

    return _replace_t(gf, t_power, tau)


def check_main_theorem(N: int) -> TheoremReport:
    """Full symbolic identity: the component sum equals the generating function
    with t-powers replaced by (1+x)^mu (1+x(x-tau))^((n-mu)/2) tau^nu."""
    rep = TheoremReport("component_sum_equals_weighted_enumeration", {"N": N})
    lhs = sum_components(N)
    rhs = _weighted_enumeration(genfun(N), ChainShape.of(N).n, MultiLaurent.var("tau"))
    if lhs != rhs:
        rep.fail(lhs=lhs.to_json(), rhs=rhs.to_json())
    return rep


# the largest N at which check_corollaries runs parts (b), (c) and (d): each
# enumerates the TSASMs of order 2N+1 or 2N+3
_COUNT_MAX, _SUSY_MAX, _SHIFT_MAX = 6, 5, 5


def check_corollaries(N: int) -> TheoremReport:
    """The corollary chain:

    (a) the tau = 1 component sum against the tau = 1 generating function;
    (b) the counting integral against the enumeration count, N <= _COUNT_MAX;
    (c) the component sum at x = tau = 1 against the count two orders higher,
        N <= _SUSY_MAX;
    (d) the shift identity gf_N(1+tau, tau) = gf_{N+1}(1, tau), N <= _SHIFT_MAX.
    """
    rep = TheoremReport("corollaries", {"N": N, "count_max": _COUNT_MAX,
                                        "susy_max": _SUSY_MAX, "shift_max": _SHIFT_MAX})
    gf = genfun(N)
    lhs = sum_components(N, tau=1)
    rhs = _weighted_enumeration(gf, ChainShape.of(N).n, 1)
    if lhs != rhs:
        rep.fail(part="a_tau_one", lhs=lhs.to_json(), rhs=rhs.to_json())

    if N <= _COUNT_MAX:
        ci = tsasm_count_integral(N)
        ce = len(enumerate_tsasm(N))
        if ci != ce:
            rep.fail(part="b_counts", lhs=ci, rhs=ce)

    if N <= _SUSY_MAX:
        sval = sum_components(N, x=1, tau=1)
        bigger = len(enumerate_tsasm(N + 1))
        if sval != bigger:
            rep.fail(part="c_supersymmetric_point", lhs=sval, rhs=bigger)

    if N <= _SHIFT_MAX:
        tau = MultiLaurent.var("tau")
        lhs_d = _replace_t(gf, lambda mu: (1 + tau) ** mu, tau, ("tau",))
        rhs_d = _replace_t(genfun(N + 1), lambda mu: 1, tau, ("tau",))
        if lhs_d != rhs_d:
            rep.fail(part="d_shift", lhs=lhs_d.to_json(), rhs=rhs_d.to_json())
    return rep
