"""Write sum_golden.json: symbolic component sums and component tables.

Run from the root of a source checkout:

    PYTHONPATH=src python tests/data/make_sum_golden.py [max_N]

max_N defaults to 10.  The "sum" rows hold ``sum_components(N)`` for
N = 0..max_N exactly as ``xtl sum --N <N>`` prints it, and the "psi" rows
hold ``psi_components(N)`` for N = 0..min(max_N, 8) exactly as
``xtl psi --N <N>`` prints it (both without the trailing newline).  The file
pins the contour route byte for byte, so it is written once by a trusted
version of the code and only read by the tests.  The N = 10 sum takes about
a minute.
"""

import json
import pathlib
import sys

from xtl.cli import serialize
from xtl.contour import psi_components, sum_components


def main():
    max_N = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    sums = [{"N": N, "sum": serialize(sum_components(N), "json").rstrip("\n")}
            for N in range(max_N + 1)]
    psis = [{"N": N, "psi": json.dumps(psi_components(N).to_json(),
                                       separators=(",", ":"))}
            for N in range(min(max_N, 8) + 1)]
    out = pathlib.Path(__file__).with_name("sum_golden.json")
    out.write_text(json.dumps({"sum": sums, "psi": psis}, indent=1) + "\n")


if __name__ == "__main__":
    main()
