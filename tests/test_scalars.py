"""Routes take int, Fraction and GaussianRational scalars as given; the
arithmetic in exact refuses anything else."""

from fractions import Fraction

import pytest

from xtl.contour import psi_components, sum_components
from xtl.exact import GaussianRational as G, UsageError, bracket, inv
from xtl.operators import SpinVector, k_corner
from xtl.qkz import check_exchange_and_reflection, check_psi_reduction, gen_sum_Z, psi_vector
from xtl.sixvertex import overlap_ZZ, partition_algebraic, partition_enum, rescaled_YY
from xtl.spinchain import apply_hamiltonian_sector, eigenvalue_E, verify_eigenpair

REFUSED = {
    "inv": lambda: inv(0.5),
    "bracket": lambda: bracket(0.5),
    "partition_enum": lambda: partition_enum(1, "ud", [0.5, 3], 2, 5),
    "verify_eigenpair": lambda: verify_eigenpair(3, 0.5),
    "eigenvalue_E": lambda: eigenvalue_E(3, 0.5),
    "apply_hamiltonian_sector": lambda: apply_hamiltonian_sector(2, 0.5, {(1,): 1}),
    "psi_components": lambda: psi_components(3, x=0.5),
    "sum_components": lambda: sum_components(3, tau=0.5),
    # values no arithmetic inverts or clears before they are returned
    "SpinVector.make": lambda: SpinVector.make(2, {(1,): 0.5}),
    "apply_hamiltonian_sector_amplitude": lambda: apply_hamiltonian_sector(2, 3, {(1,): 0.5}),
    "k_corner": lambda: k_corner(2, 3, 1.5),
}


@pytest.mark.parametrize("call", REFUSED.values(), ids=REFUSED.keys())
def test_a_float_is_refused_as_not_exact(call):
    # every route inverts through exact.inv or clears through
    # exact.gaussian_ints, and both refuse a value that is not exact; a
    # SpinVector amplitude and the corner matrix's t are checked where they
    # are taken
    with pytest.raises(UsageError, match="not an exact scalar"):
        call()


# a real point, nondegenerate for every route below: its sites avoid the
# pole collisions at q = 9/4, and so do the half-specialized w sites
ZS = [2, 3, 5, Fraction(7, 2)]
WS = [2, Fraction(1, 3)]
S, BETA, T, B = Fraction(3, 2), Fraction(3, 5), 5, Fraction(2, 7)

ROUTES = {
    "psi_vector": (psi_vector, (4,), (ZS, S, BETA)),
    "check_exchange_and_reflection": (check_exchange_and_reflection, (4, 2), (ZS, S, BETA)),
    "check_psi_reduction": (check_psi_reduction, (4, 2), (ZS, S, BETA)),
    "gen_sum_Z": (gen_sum_Z, (4,), (WS, S, BETA)),
    "gen_sum_Z-all-ones": (gen_sum_Z, (4,), ([1, 1], S, BETA)),
    "overlap_ZZ": (overlap_ZZ, (2,), (WS, S, T, B)),
    "rescaled_YY": (rescaled_YY, (2,), (WS, S, T, B)),
    "partition_enum": (partition_enum, (2, "udud"), (ZS, S, T)),
    "partition_algebraic": (partition_algebraic, (2, "udud"), (ZS, S, T)),
    "verify_eigenpair-int": (verify_eigenpair, (4,), (3,)),
    "verify_eigenpair-fraction": (verify_eigenpair, (4,), (Fraction(3, 7),)),
}


@pytest.mark.parametrize("route,sizes,scalars", ROUTES.values(), ids=ROUTES.keys())
def test_real_scalars_give_what_the_equal_gaussian_rationals_give(route, sizes, scalars):
    lifted = [[G(v) for v in a] if isinstance(a, list) else G(a) for a in scalars]
    got, want = route(*sizes, *scalars), route(*sizes, *lifted)
    assert got == want
    if hasattr(want, "to_json"):
        assert got.to_json() == want.to_json()
    if isinstance(want, dict) and "pass" in want:
        assert want["pass"]
    elif hasattr(want, "passed"):
        assert want.passed
