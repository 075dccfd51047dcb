"""Write genfun_golden.json: the TSASM generating function for N = 0..13.

Run from the root of a source checkout:

    PYTHONPATH=src python tests/data/make_genfun_golden.py [max_N]

max_N defaults to 13 (order 27, the largest order ``xtl tsasm genfun``
accepts).  Each row holds ``genfun(N)`` exactly as ``xtl tsasm genfun --N <N>``
prints it (``serialize`` JSON form, without the trailing newline).  The file
pins the enumeration side of the main theorem byte for byte, so it is written
once by a trusted version of the code and only read by the tests.
"""

import json
import pathlib
import sys

from xtl.cli import serialize
from xtl.tsasm import genfun


def main():
    max_N = int(sys.argv[1]) if len(sys.argv) > 1 else 13
    rows = [{"N": N, "order": 2 * N + 1,
             "genfun": serialize(genfun(N), "json").rstrip("\n")}
            for N in range(max_N + 1)]
    out = pathlib.Path(__file__).with_name("genfun_golden.json")
    out.write_text(json.dumps({"rows": rows}, indent=1) + "\n")


if __name__ == "__main__":
    main()
