"""Write psi_golden.json: psi_vector amplitudes at seeded points, N = 2..7.

Run from the root of a source checkout:

    PYTHONPATH=src python tests/data/make_psi_golden.py

The file pins the residue route's output byte for byte, so it is written
once by a trusted version of the code and only read by the tests.
"""

import json
import pathlib

from xtl.exact import format_scalar
from xtl.qkz import psi_vector
from xtl.sampling import ExactSampler

# (N, seed) pairs: three points for N = 2..5, two for N = 6 and 7.
CASES = [(N, 100 * N + k) for N in range(2, 6) for k in range(3)]
CASES += [(N, 100 * N + k) for N in (6, 7) for k in range(2)]


def main():
    points = []
    for N, seed in CASES:
        rng = ExactSampler(seed)
        s, beta = rng.s_value(), rng.beta_value()
        zs = rng.z_point(N, s)
        vec = psi_vector(N, zs, s, beta)
        points.append({
            "N": N, "seed": seed,
            "s": format_scalar(s), "beta": format_scalar(beta),
            "zs": [format_scalar(z) for z in zs],
            "amps": {",".join(map(str, k)): format_scalar(v)
                     for k, v in sorted(vec.amps.items())},
        })
    out = pathlib.Path(__file__).with_name("psi_golden.json")
    out.write_text(json.dumps({"points": points}, indent=1) + "\n")


if __name__ == "__main__":
    main()
