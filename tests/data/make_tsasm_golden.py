"""Write tsasm_golden.json: count and digest of every TSASM listing, N = 0..9.

Run from the root of a source checkout:

    PYTHONPATH=src python tests/data/make_tsasm_golden.py [max_N]

max_N defaults to 9 (order 19), the largest order ``xtl tsasm list``
accepts.  Each row holds ``len(enumerate_tsasm(N))``
and the sha1 of ``"".join(matrix_blocks(enumerate_tsasm(N)))``, the bytes
``xtl tsasm list --order <2N+1>`` prints.  The file pins the canonical order and
the text of every listing byte for byte, so it is written once by a trusted
version of the code and only read by the tests.
"""

import hashlib
import json
import pathlib
import sys

from xtl.tsasm import enumerate_tsasm, matrix_blocks


def main():
    max_N = int(sys.argv[1]) if len(sys.argv) > 1 else 9
    rows = []
    for N in range(max_N + 1):
        ms = enumerate_tsasm(N)
        rows.append({"N": N, "order": 2 * N + 1, "count": len(ms),
                     "sha1": hashlib.sha1("".join(matrix_blocks(ms)).encode()).hexdigest()})
    out = pathlib.Path(__file__).with_name("tsasm_golden.json")
    out.write_text(json.dumps({"rows": rows}, indent=1) + "\n")


if __name__ == "__main__":
    main()
