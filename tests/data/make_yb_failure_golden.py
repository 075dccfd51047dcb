"""Write yb_failure_golden.json: the failure entries check_yb_identities
records when the (0, 0) entry of the lattice crossing matrix is doubled.

Run from the root of a source checkout:

    PYTHONPATH=src python tests/data/make_yb_failure_golden.py

The run is check_yb_identities(trials=1, seed=6, max_stack_n=1) with
sixvertex.r_bulk perturbed; the file keeps the failure entries of the three
families that break, their lhs/rhs text included.  It pins the reduced
repr text a failure records, whatever form the trials compare their sides
in, so it is written once by a trusted version of the code and only read by
the tests.
"""

import json
import pathlib

from xtl import sixvertex

FAMILIES = ("yang_baxter_bulk", "boundary_yang_baxter_bulk", "stack_commutation_n1")


def doubled_corner_entry(real):
    """real with the (0, 0) entry of the matrix it returns doubled."""
    def bad(*args):
        m = real(*args)
        return tuple(tuple(v * 2 if (r, c) == (0, 0) else v for c, v in enumerate(row))
                     for r, row in enumerate(m))
    return bad


def failures():
    """{family: failure entries} of the perturbed run, for FAMILIES."""
    real = sixvertex.r_bulk
    sixvertex.r_bulk = doubled_corner_entry(real)
    try:
        rep = sixvertex.check_yb_identities(trials=1, seed=6, max_stack_n=1)
    finally:
        sixvertex.r_bulk = real
    return {fam: rep[fam]["failures"] for fam in FAMILIES}


def main():
    out = pathlib.Path(__file__).with_name("yb_failure_golden.json")
    out.write_text(json.dumps(failures(), indent=1) + "\n")


if __name__ == "__main__":
    main()
