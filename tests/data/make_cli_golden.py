"""Write cli_golden.txt: stdout and exit code of a fixed list of xtl commands.

Run from the root of a source checkout:

    PYTHONPATH=src python tests/data/make_cli_golden.py

The file pins the CLI's output byte for byte, so it is written once by a
trusted version of the code and only read by the tests, which replay the
same commands in-process through ``xtl.cli.dispatch``.
"""

import contextlib
import io
import pathlib

from xtl.cli import dispatch

README_PF = ["sixvertex", "pf", "--n", "2", "--alpha", "-", "--s", "5/2",
             "--t", "3", "--z", "2,3,5/3,7/2"]
PF_N3 = ["sixvertex", "pf", "--n", "3", "--alpha", "+", "--s", "5/2", "--t", "3",
         "--z", "2,3,5/3,7/2,4/5,6/7"]
PF_N4 = ["sixvertex", "pf", "--n", "4", "--alpha", "-", "--s", "5/2", "--t", "3",
         "--z", "2,3,5/3,7/2,4/5,6/7,9/4,11/3"]

COMMANDS = [
    ["psi", "--N", "4"],
    ["psi", "--N", "5", "--x", "3/7", "--tau", "2", "--format", "text"],
    ["psi", "--N", "3", "--x", "2"],
    ["psi", "--N", "5", "--x", "-3/7"],
    ["psi", "--N", "4", "--tau", "1/2", "--format", "text"],
    ["psi", "--N", "4", "--x", "1+i", "--tau", "2"],
    ["psi", "--N", "4", "--tau", "1+i"],
    ["psi", "--N", "5", "--x", "0", "--tau", "1+i"],
    ["sum", "--N", "5", "--format", "text"],
    ["sum", "--N", "6"],
    *(["tsasm", "count", "--max-order", "13", "--format", "csv", "--method", m]
      for m in ("enum", "integral", "partition")),
    ["tsasm", "genfun", "--order", "11"],
    ["tsasm", "genfun", "--order", "17"],
    ["tsasm", "genfun", "--order", "15", "--format", "text"],
    ["tsasm", "list", "--order", "9"],
    ["tsasm", "list", "--order", "9", "--format", "json"],
    README_PF + ["--method", "enum"],
    README_PF + ["--method", "algebraic"],
    ["sixvertex", "pf", "--n", "2", "--alpha", "+", "--s", "5/2", "--t", "t"],
    PF_N3 + ["--method", "enum"],
    PF_N3 + ["--method", "algebraic"],
    PF_N4 + ["--method", "enum"],
    ["spinchain", "verify", "--N", "6", "--x", "3/7"],
    *(["verify", "--suite", s, "--max-N", "4", "--trials", "2"]
      for s in ("exchange", "reduction", "zprops", "yandyy", "gflemma",
                "relationsz")),
    ["verify", "--suite", "main", "--max-N", "6"],
    ["verify", "--suite", "corollaries", "--max-N", "5"],
    ["verify", "--suite", "corollaries", "--max-N", "7"],
    ["verify", "--suite", "ybe", "--trials", "1"],
    ["verify", "--suite", "all", "--max-N", "4", "--trials", "2"],
    # above N = 4 relationsz runs at most 3 trials
    ["verify", "--suite", "relationsz", "--max-N", "5", "--trials", "4"],
]


def run(args):
    """Run one command in-process; returns its transcript block."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = dispatch(args)
    return f"$ xtl {' '.join(args)}\n{buf.getvalue()}[exit {code}]\n"


def transcript():
    return "".join(run(args) for args in COMMANDS)


def main():
    out = pathlib.Path(__file__).with_name("cli_golden.txt")
    out.write_text(transcript())


if __name__ == "__main__":
    main()
