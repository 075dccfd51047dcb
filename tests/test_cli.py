import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys
import types

import pytest

from xtl import cli, contour
from xtl.cli import dispatch
from xtl.contour import ChainShape, ComponentTable
from xtl.exact import DomainError, MultiLaurent

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"


def cli_env(**extra):
    """Environment for `python -m xtl.cli` that finds the package in src/."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
                           if p)
    return dict(os.environ, PYTHONPATH=path, **extra)


def run_cli(args, tmp_path=None):
    """Run in-process, capturing stdout."""
    import contextlib
    import io
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = dispatch(args)
    return code, buf.getvalue()


def test_sum_json_matches_polynomial():
    code, out = run_cli(["sum", "--N", "3", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["vars"] == ["x", "tau"]
    assert obj["terms"] == [{"e": [0, 0], "c": "1"}, {"e": [0, 1], "c": "1"},
                            {"e": [1, 0], "c": "1"}, {"e": [1, 1], "c": "1"}]


def test_tsasm_count_enum():
    code, out = run_cli(["tsasm", "count", "--order", "13", "--method", "enum"])
    assert code == 0 and out.strip() == "46"


def test_tsasm_count_csv_table():
    code, out = run_cli(["tsasm", "count", "--max-order", "11",
                         "--method", "integral", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,order,count"
    assert lines[-1] == "5,11,13"


def test_tsasm_list_text():
    code, out = run_cli(["tsasm", "list", "--order", "3"])
    assert code == 0 and out == "0 1 0\n1 -1 1\n0 1 0\n"


def test_psi_table_json():
    code, out = run_cli(["psi", "--N", "2"])
    assert code == 0
    obj = json.loads(out)
    assert [e["a"] for e in obj["entries"]] == [[1], [2]]


def test_sixvertex_pf_both_methods_agree():
    args = ["sixvertex", "pf", "--n", "2", "--alpha", "-", "--s", "5/2", "--t", "3",
            "--z", "2,3,5/3,7/2"]
    c1, o1 = run_cli(args + ["--method", "enum"])
    c2, o2 = run_cli(args + ["--method", "algebraic"])
    assert c1 == c2 == 0 and o1 == o2


def test_spinchain_verify_json_and_exit():
    code, out = run_cli(["spinchain", "verify", "--N", "6", "--x", "3/7"])
    assert code == 0
    obj = json.loads(out)
    assert obj["residual_zero"] and obj["magnetization_ok"]


def test_verify_main_suite():
    code, out = run_cli(["verify", "--suite", "main", "--max-N", "4"])
    assert code == 0
    for line in out.strip().splitlines():
        rec = json.loads(line)
        assert rec["pass"]


def test_verify_corollaries_suite():
    code, out = run_cli(["verify", "--suite", "corollaries", "--max-N", "3"])
    assert code == 0


def test_usage_errors_exit_two():
    code, _ = run_cli(["tsasm", "count", "--order", "4"])
    assert code == 2
    code, _ = run_cli(["tsasm", "count"])
    assert code == 2
    code, _ = run_cli(["nonsense"])
    assert code == 2


def test_tsasm_refuses_orders_that_cannot_finish(monkeypatch, capsys):
    # no route runs: each is replaced, so only the limit check is exercised
    from xtl import tsasm

    def never(N):
        raise AssertionError("a refused request must not start its route")

    for name in ("enumerate_tsasm", "genfun", "count_from_partition"):
        monkeypatch.setattr(tsasm, name, never)
    monkeypatch.setattr(contour, "tsasm_count_integral", never)
    refused = [["tsasm", "list", "--order", "21"],
               ["tsasm", "count", "--order", "21", "--method", "enum"],
               ["tsasm", "count", "--max-order", "25", "--method", "integral"],
               ["tsasm", "count", "--max-order", "29", "--method", "partition"],
               ["tsasm", "genfun", "--order", "29"],
               ["tsasm", "genfun", "--N", "14"]]
    for args in refused:
        assert run_cli(args) == (2, ""), args
        assert "usage error: order" in capsys.readouterr().err

    # the limits themselves are accepted
    monkeypatch.setattr(tsasm, "enumerate_tsasm", lambda N: [])
    monkeypatch.setattr(tsasm, "genfun", lambda N: MultiLaurent.const(1, ("t", "tau")))
    monkeypatch.setattr(tsasm, "count_from_partition", lambda N: 1)
    monkeypatch.setattr(contour, "tsasm_count_integral", lambda N: 1)
    for args in (["tsasm", "list", "--order", "19"],
                 ["tsasm", "count", "--order", "19", "--method", "enum"],
                 ["tsasm", "count", "--order", "23", "--method", "integral"],
                 ["tsasm", "count", "--order", "27", "--method", "partition"],
                 ["tsasm", "genfun", "--order", "27"]):
        assert run_cli(args)[0] == 0, args


def test_psi_and_sum_refuse_sizes_that_cannot_finish(monkeypatch, capsys):
    # nothing is expanded: both routes are replaced, so only the limit check runs
    def never(N, x=None, tau=None):
        raise AssertionError("a refused request must not start its route")

    monkeypatch.setattr(contour, "psi_components", never)
    monkeypatch.setattr(contour, "sum_components", never)
    for args in (["psi", "--N", "12"], ["psi", "--N", "12", "--x", "2", "--tau", "1"],
                 ["sum", "--N", "12"], ["sum", "--N", "40", "--format", "text"]):
        assert run_cli(args) == (2, ""), args
        assert "usage error: order" in capsys.readouterr().err

    # N = 11 (order 23) is accepted
    table = ComponentTable(ChainShape.of(0), {(): 1})
    monkeypatch.setattr(contour, "psi_components", lambda N, x=None, tau=None: table)
    monkeypatch.setattr(contour, "sum_components", lambda N: MultiLaurent.const(1, ("x", "tau")))
    for args in (["psi", "--N", "11"], ["sum", "--N", "11"]):
        assert run_cli(args)[0] == 0, args


def test_spinchain_and_pf_refuse_sizes_that_cannot_finish(monkeypatch, capsys):
    # no route runs: each is replaced, so only the limit check is exercised
    from xtl import sixvertex, spinchain

    def never(*args):
        raise AssertionError("a refused request must not start its route")

    for mod, name in ((spinchain, "verify_eigenpair"), (sixvertex, "partition_enum"),
                      (sixvertex, "partition_algebraic")):
        monkeypatch.setattr(mod, name, never)
    pf = ["sixvertex", "pf", "--alpha", "+", "--s", "2", "--t", "3"]
    for args in (["spinchain", "verify", "--N", "12", "--x", "1/2"],
                 ["spinchain", "verify", "--N", "40", "--x", "1/2"],
                 pf + ["--n", "7", "--method", "enum"],
                 pf + ["--n", "8", "--method", "algebraic"]):
        assert run_cli(args) == (2, ""), args
        assert "usage error: order" in capsys.readouterr().err

    # the limits themselves are accepted
    report = spinchain.EigenReport(11, 1, 0, True, True, True)
    monkeypatch.setattr(spinchain, "verify_eigenpair", lambda N, x: report)
    monkeypatch.setattr(sixvertex, "partition_enum", lambda *args: 1)
    monkeypatch.setattr(sixvertex, "partition_algebraic", lambda *args: 1)
    for args in (["spinchain", "verify", "--N", "11", "--x", "1/2"],
                 pf + ["--n", "6", "--method", "enum"],
                 pf + ["--n", "7", "--method", "algebraic"]):
        assert run_cli(args)[0] == 0, args


def test_zero_denominators_are_usage_errors(capsys):
    pf = ["sixvertex", "pf", "--n", "1", "--alpha", "+", "--s", "2", "--t", "3"]
    for args in (["psi", "--N", "2", "--x", "1/0"],
                 ["psi", "--N", "2", "--tau", "3/0"],
                 ["sixvertex", "pf", "--n", "1", "--alpha", "+", "--s", "1/0", "--t", "3"],
                 pf[:-1] + ["1/0"],
                 pf + ["--z", "2,1/0"],
                 pf + ["--z", "2,1+1/0*i"],
                 ["spinchain", "verify", "--N", "2", "--x", "1/0"]):
        assert run_cli(args) == (2, ""), args
        assert "usage error: " in capsys.readouterr().err


def test_parameters_that_divide_by_zero_are_usage_errors(monkeypatch, capsys):
    # x = 0, s in {0, i, -i} (where {s} = s + 1/s = 0) and a zero site value
    # are refused before any route divides by them
    pf = ["sixvertex", "pf", "--n", "1", "--alpha", "+", "--t", "3"]
    refused = [["spinchain", "verify", "--N", "3", "--x", "0"],
               ["spinchain", "verify", "--N", "3", "--x", "0/5"]]
    refused += [pf + ["--s=" + s, "--method", m] for s in ("0", "i", "-i", "0/2*i")
                for m in ("enum", "algebraic")]
    refused += [pf + ["--s", "2", "--z", z, "--method", m]
                for z in ("0,1", "1,0", "w,0") for m in ("enum", "algebraic")]
    for args in refused:
        assert run_cli(args) == (2, ""), args
        assert "usage error: " in capsys.readouterr().err

    # a failure inside a route, such as an interpolation window that is too
    # small, is still a verification failure
    def too_small(N):
        raise DomainError("window too small")

    monkeypatch.setattr(contour, "sum_components", too_small)
    assert run_cli(["sum", "--N", "2"]) == (1, "")
    assert capsys.readouterr().err == "error: window too small\n"


_PF = ["sixvertex", "pf", "--n", "1", "--alpha", "+"]


@pytest.mark.parametrize("args, flag, value", [
    (_PF + ["--t", "3"], "--s", "-1/2"),
    (_PF + ["--t", "3", "--method", "algebraic"], "--s", "-1/2"),
    (_PF + ["--s", "2"], "--t", "-1/2"),
    (_PF + ["--s", "2", "--t", "3"], "--z", "-1,2"),
    (_PF + ["--s", "2", "--t", "3", "--method", "algebraic"], "--z", "-1/3,2"),
    (["spinchain", "verify", "--N", "3"], "--x", "-1/2"),
    (["psi", "--N", "2"], "--x", "-1/2"),
    (["psi", "--N", "2"], "--tau", "-1/2"),
    (["psi", "--N", "2"], "--ta", "-i"),
], ids=["pf-s", "pf-s-algebraic", "pf-t", "pf-z", "pf-z-algebraic", "spinchain-x",
        "psi-x", "psi-tau", "psi-tau-abbreviated"])
def test_negative_scalar_after_a_space(args, flag, value):
    # a value such as -1/2 is not a plain number, so argparse took it for an
    # option; it must read as it does in the --flag=value form
    code, out = run_cli(args + [flag, value])
    assert (code, out) == run_cli(args + [f"{flag}={value}"])
    assert code == 0 and out


def test_negative_zero_scalars_after_a_space_are_refused(capsys):
    for args in (_PF + ["--t", "3", "--s", "-i"], _PF + ["--s", "2", "--t", "3", "--z", "-0,1"],
                 ["spinchain", "verify", "--N", "3", "--x", "-0/5"]):
        assert run_cli(args) == (2, ""), args
        err = capsys.readouterr().err
        assert "usage error: " in err and "expected one argument" not in err, args


def test_pf_refuses_size_zero_on_both_routes(capsys):
    for method in ("enum", "algebraic"):
        args = ["sixvertex", "pf", "--n", "0", "--alpha", "+", "--s", "2", "--t", "3",
                "--method", method]
        assert run_cli(args) == (2, ""), args
        assert "usage error: n must be >= 1" in capsys.readouterr().err


def test_tsasm_count_refuses_max_order_below_one(capsys):
    for order in ("0", "-5"):
        for fmt in ("text", "json", "csv"):
            args = ["tsasm", "count", "--max-order", order, "--format", fmt]
            assert run_cli(args) == (2, ""), args
            assert "usage error: --max-order" in capsys.readouterr().err


def test_verify_refuses_requests_that_check_nothing(monkeypatch, capsys):
    # no job runs: a refused request fails before any job starts
    def never(job):
        raise AssertionError("a refused request must not run a job")

    monkeypatch.setattr(cli, "_run_job", never)
    refused = [["verify", "--suite", s, "--trials", t]
               for s in ("all", "exchange", "zprops", "yandyy", "relationsz", "main")
               for t in ("0", "-3")]
    for args in refused:
        assert run_cli(args) == (2, ""), args
        assert capsys.readouterr().err == "usage error: --trials must be at least 1\n"

    # one below each smallest --max-N, with the exact line; --trials is checked first
    lows = {"all": 2, "exchange": 2, "reduction": 2, "zprops": 2,
            "yandyy": 0, "relationsz": 0, "main": 0, "corollaries": 0}
    for suite, low in lows.items():
        args = ["verify", "--suite", suite, "--max-N", str(low - 1), "--trials", "2"]
        assert run_cli(args) == (2, ""), args
        assert capsys.readouterr().err == (f"usage error: --suite {suite} checks "
                                           f"nothing below --max-N {low}\n")
        assert run_cli(args[:-1] + ["0"]) == (2, ""), args
        assert capsys.readouterr().err == "usage error: --trials must be at least 1\n"

    # the smallest accepted requests run their jobs
    monkeypatch.setattr(cli, "_run_job", lambda job: (True, job[0]))
    for args, lines in ((["--suite", "zprops", "--max-N", "2", "--trials", "1"], 1),
                        (["--suite", "exchange", "--max-N", "2", "--trials", "1"], 1),
                        (["--suite", "main", "--max-N", "0"], 1),
                        (["--suite", "gflemma", "--max-N", "0"], 1),
                        (["--suite", "ybe", "--max-N", "0"], 1)):
        code, out = run_cli(["verify"] + args)
        assert code == 0 and len(out.splitlines()) == lines, args


def test_verify_refuses_max_n_that_cannot_finish(monkeypatch, capsys):
    # no job runs: a refused request fails before any job starts
    def never(job):
        raise AssertionError("a refused request must not run a job")

    monkeypatch.setattr(cli, "_run_job", never)
    limits = {"exchange": 9, "reduction": 9, "zprops": 9, "yandyy": 11,
              "relationsz": 7, "main": 11, "all": 7}
    for suite, limit in limits.items():
        for max_n in (limit + 1, 40):
            args = ["verify", "--suite", suite, "--max-N", str(max_n), "--trials", "1"]
            assert run_cli(args) == (2, ""), args
            assert capsys.readouterr().err == (f"usage error: --suite {suite} cannot "
                                               f"finish above --max-N {limit}\n")
            # --trials is checked first
            assert run_cli(args[:-1] + ["0"]) == (2, ""), args
            assert capsys.readouterr().err == "usage error: --trials must be at least 1\n"

    # the limits themselves are accepted, and the suites that cap their own
    # jobs or ignore --max-N take any size
    monkeypatch.setattr(cli, "_run_job", lambda job: (True, job[0]))
    accepted = list(limits.items())
    accepted += [(s, 40) for s in ("gflemma", "corollaries", "ybe")]
    for suite, max_n in accepted:
        args = ["verify", "--suite", suite, "--max-N", str(max_n), "--trials", "1"]
        assert run_cli(args)[0] == 0, args


def test_byte_stable_output():
    a = run_cli(["sum", "--N", "5", "--format", "json"])
    b = run_cli(["sum", "--N", "5", "--format", "json"])
    assert a == b


def test_thread_count_never_changes_output():
    base = ["verify", "--suite", "corollaries", "--max-N", "2"]
    r1 = subprocess.run([sys.executable, "-m", "xtl.cli"] + base + ["--threads", "1"],
                        capture_output=True, text=True, env=cli_env())
    r2 = subprocess.run([sys.executable, "-m", "xtl.cli"] + base + ["--threads", "2"],
                        capture_output=True, text=True, env=cli_env())
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout


def test_env_seed_default_applies():
    env = cli_env(XTL_SEED="7")
    r = subprocess.run([sys.executable, "-m", "xtl.cli", "verify", "--suite",
                        "yandyy", "--max-N", "2", "--trials", "2"],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0 and '"seed": 7' in r.stdout


@pytest.mark.parametrize("var,flag", [("XTL_SEED", "--seed"), ("XTL_THREADS", "--threads")])
def test_malformed_env_default_is_a_usage_error(monkeypatch, capsys, var, flag):
    # a bad value must not fall back to the built-in default; a flag still
    # wins, and the variable is then not read
    monkeypatch.setenv(var, "abc")
    base = ["verify", "--suite", "yandyy", "--max-N", "1", "--trials", "1"]
    assert run_cli(base) == (2, "")
    assert run_cli(base + [flag, "1"])[0] == 0


def test_nonpositive_worker_count_is_a_usage_error(monkeypatch, capsys):
    # refused before any job runs, as a malformed XTL_THREADS is
    def never(job):
        raise AssertionError("a refused request must not run a job")

    monkeypatch.setattr(cli, "_run_job", never)
    base = ["verify", "--suite", "yandyy", "--max-N", "1", "--trials", "1"]
    monkeypatch.setenv("XTL_THREADS", "0")
    for args in (base, base + ["--threads", "0"], base + ["--threads", "-3"]):
        assert run_cli(args) == (2, ""), args
        assert "usage error: --threads must be at least 1" in capsys.readouterr().err
    monkeypatch.setattr(cli, "_run_job", lambda job: (True, job[0]))
    assert run_cli(base + ["--threads", "1"])[0] == 0


def test_out_flag(tmp_path):
    p = tmp_path / "out.json"
    code = dispatch(["--out", str(p), "sum", "--N", "2"])
    assert code == 0
    assert json.loads(p.read_text())["vars"] == ["x", "tau"]


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_path_is_one_usage_error_line(tmp_path, capsys, where):
    path = tmp_path / "missing" / "f.json" if where == "missing-directory" else tmp_path
    assert dispatch(["--out", str(path), "psi", "--N", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: cannot write --out {str(path)!r}: ")
    assert err.count("\n") == 1


def test_console_entry_point():
    r = subprocess.run([sys.executable, "-m", "xtl.cli", "tsasm", "count",
                        "--order", "7", "--method", "partition"],
                       capture_output=True, text=True, env=cli_env())
    assert r.returncode == 0 and r.stdout.strip() == "2"


def test_golden_transcript():
    # stdout and exit codes of a fixed command list, replayed in-process
    spec = importlib.util.spec_from_file_location("make_cli_golden",
                                                  DATA / "make_cli_golden.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    assert gen.transcript() == (DATA / "cli_golden.txt").read_text()


class _FakePool:
    def __init__(self, workers, seen):
        seen.append(workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize):
        assert chunksize == 1   # one job at a time keeps the workers balanced
        return [fn(j) for j in jobs]


def test_verify_threads_capped_by_cores_and_jobs(monkeypatch):
    # no process is started: the pool factory is replaced
    seen = []
    monkeypatch.setattr(cli, "_pool", lambda workers: _FakePool(workers, seen))
    base = ["verify", "--suite", "main", "--max-N", "4"]   # five jobs
    _, want = run_cli(base + ["--threads", "1"])
    threshold = cli._POOL_AFTER_S
    # at a threshold of zero the four jobs left after the first go to the pool
    monkeypatch.setattr(cli, "_POOL_AFTER_S", 0.0)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert run_cli(base + ["--threads", "5000"]) == (0, want)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert run_cli(base + ["--threads", "5000"]) == (0, want)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert run_cli(base + ["--threads", "5000"]) == (0, want)
    assert seen == [3, 4]

    # a fake clock that each job advances by `step`
    monkeypatch.setattr(cli, "_POOL_AFTER_S", threshold)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    clock = types.SimpleNamespace(perf_counter=lambda: clock.now, now=0.0)
    monkeypatch.setattr(cli, "time", clock)
    ran, run_job = [], cli._run_job

    def timed_job(job):
        ran.append(job[1]["N"])
        clock.now += clock.step
        return run_job(job)

    monkeypatch.setattr(cli, "_run_job", timed_job)
    # tiny jobs never reach the threshold: no pool opens at --threads 2
    clock.step = threshold / 10
    assert run_cli(base + ["--threads", "2"]) == (0, want)
    assert seen == [3, 4] and ran == [0, 1, 2, 3, 4]

    # the clock starts after the first job, which pays for the imports; once
    # the parent's jobs reach the threshold, the jobs left go to the pool,
    # largest first
    base = ["verify", "--suite", "main", "--max-N", "5"]   # six jobs
    _, want = run_cli(base + ["--threads", "1"])
    ran.clear()
    clock.step = threshold / 2.5
    assert run_cli(base + ["--threads", "2"]) == (0, want)
    assert seen == [3, 4, 2] and ran == [0, 1, 2, 3, 5, 4]


def test_verify_runs_jobs_smallest_first_and_prints_in_suite_order(monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "_run_job", lambda job: ran.append(job) or (True, job[0]))
    args = ["verify", "--max-N", "2", "--trials", "1", "--threads", "1"]
    code, out = run_cli(args)
    jobs = cli._suite_jobs(cli._build_parser().parse_args(args))
    assert code == 0 and out.split() == [kind for kind, _ in jobs]
    # by size, in suite order within a size; ybe, which has no size, last
    assert [kind for kind, _ in ran[:4]] == ["yandyy", "relationsz", "main", "corollaries"]
    assert ran[-1][0] == "ybe" and ran == sorted(jobs, key=cli._job_size)


def test_real_pool_keeps_suite_order_and_usage_errors(monkeypatch, capsys):
    # at a threshold of zero a real 2-worker pool forks after the first job
    opened, fork_pool = [], cli._pool
    monkeypatch.setattr(cli, "_pool", lambda workers: opened.append(workers)
                        or fork_pool(workers))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    base = ["verify", "--suite", "all", "--max-N", "3", "--trials", "1"]
    serial = run_cli(base + ["--threads", "1"])
    assert serial[0] == 0 and opened == []
    # suite order, although the Yang-Baxter job runs last
    assert json.loads(serial[1].splitlines()[0])["statement"] == "yang_baxter_identities"
    monkeypatch.setattr(cli, "_POOL_AFTER_S", 0.0)
    assert run_cli(base + ["--threads", "2"]) == serial
    assert opened == [2]

    # a job that raises UsageError gives exit 2 in the parent and in a worker;
    # the first job always runs in the parent
    monkeypatch.setattr(cli, "_suite_jobs", lambda ns: [
        ("main", {"N": 0}), ("bogus", {"N": 1}), ("main", {"N": 2})])
    capsys.readouterr()
    for threshold, pools in ((math.inf, [2]), (0.0, [2, 2])):
        monkeypatch.setattr(cli, "_POOL_AFTER_S", threshold)
        assert run_cli(["verify", "--threads", "2"]) == (2, "")
        assert "usage error: unknown job kind 'bogus'" in capsys.readouterr().err
        assert opened == pools


_LOADED_AFTER_EXCHANGE = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("make_cli_golden", sys.argv[1])
gen = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gen)
exchange = gen.run(["verify", "--suite", "exchange", "--max-N", "2", "--trials", "1"])
modules = sorted(m for m in sys.modules if m.startswith("xtl."))
blocks = [gen.run(args) for args in gen.COMMANDS if args[0] in ("psi", "sum", "tsasm")]
print(json.dumps({"exchange": exchange, "modules": modules, "blocks": blocks}))
"""


def test_verify_exchange_loads_only_the_modules_it_runs():
    # a fresh process, so nothing but the CLI has imported xtl's modules
    r = subprocess.run([sys.executable, "-c", _LOADED_AFTER_EXCHANGE,
                        str(DATA / "make_cli_golden.py")],
                       capture_output=True, text=True, env=cli_env())
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["exchange"].endswith('"pass": true, "statement": "exchange"}\n[exit 0]\n')
    assert not {"xtl.contour", "xtl.tsasm", "xtl.theorems", "xtl.sixvertex",
                "xtl.spinchain"} & set(rep["modules"])
    # psi, sum and tsasm import their routes on demand and still match the golden file
    golden = (DATA / "cli_golden.txt").read_text()
    assert len(rep["blocks"]) == 16
    for block in rep["blocks"]:
        assert block in golden


def _smallest_job(kind):
    """The smallest job of a suite at --trials 1."""
    suite = cli._SUITES[kind]
    jobs = [(kind, p) for p in suite.jobs(max(suite.min_n, 0), 1, 42)]
    return min(jobs, key=cli._job_size)


def test_every_suite_reports_through_one_report_type(monkeypatch):
    # each suite's checker returns the one report type, and its line holds
    # exactly the four keys; check_yb_identities keeps its dict of families
    # (the benchmark compares it with ==) and is the one conversion
    from xtl.sampling import TheoremReport
    returned = {}
    for kind, suite in cli._SUITES.items():
        def check(mod, kind=kind, pick=suite.check):
            fn = pick(mod)
            return lambda **p: returned.setdefault(kind, fn(**p))
        monkeypatch.setitem(cli._SUITES, kind, suite._replace(check=check))
    for kind in list(cli._SUITES):
        passed, line = cli._run_job(_smallest_job(kind))
        rep = json.loads(line)
        assert passed is True and set(rep) == {"statement", "params", "pass", "failures"}
        assert rep["pass"] is True and rep["failures"] == []
    assert set(returned) == set(cli._SUITES)
    assert {k for k, r in returned.items() if not isinstance(r, TheoremReport)} == {"ybe"}


def _double_last_psi_component(monkeypatch):
    from xtl import qkz
    from xtl.operators import SpinVector
    real = qkz.psi_vector

    def faulty(N, zs, s, beta):
        amps = dict(real(N, zs, s, beta).amps)
        amps[max(amps)] = amps[max(amps)] * 2
        return SpinVector(N, amps)

    monkeypatch.setattr(qkz, "psi_vector", faulty)


def _double_r_bulk_entry(monkeypatch):
    from xtl import sixvertex
    real = sixvertex.r_bulk

    def faulty(z, s):
        m = real(z, s)
        return ((m[0][0] * 2,) + m[0][1:],) + m[1:]

    monkeypatch.setattr(sixvertex, "r_bulk", faulty)


@pytest.mark.parametrize("plant,kind,size", [
    (_double_last_psi_component, "exchange", ["--max-N", "4", "--trials", "2"]),
    (_double_last_psi_component, "reduction", ["--max-N", "4", "--trials", "2"]),
    (_double_last_psi_component, "zprops", ["--max-N", "3", "--trials", "2"]),
    (_double_last_psi_component, "yandyy", ["--max-N", "3", "--trials", "2"]),
    (_double_r_bulk_entry, "ybe", ["--trials", "1"]),
])
def test_planted_fault_fails_its_suite(monkeypatch, plant, kind, size):
    # a fault planted in a route the suite compares: every job line that
    # catches it says "pass": false with at most 5 failures, and verify exits 1
    plant(monkeypatch)
    argv = ["verify", "--suite", kind, *size, "--threads", "1"]
    jobs = cli._suite_jobs(cli._build_parser().parse_args(argv))
    results = [cli._run_job(job) for job in jobs]
    assert not all(passed for passed, _ in results)
    for passed, line in results:
        rep = json.loads(line)
        assert rep["pass"] is passed and len(rep["failures"]) <= 5
        assert passed or rep["failures"]
    code, out = run_cli(argv)
    assert code == 1 and out.splitlines() == [line for _, line in results]


def test_a_line_prints_the_first_five_failures(monkeypatch):
    from xtl import qkz
    _double_last_psi_component(monkeypatch)
    rep = qkz.check_exchange_sweep(4, trials=2, seed=42)
    assert len(rep.failures) > 5
    assert json.loads(rep.to_json_line())["failures"] == rep.failures[:5]
    job = ("exchange", {"max_n": 4, "trials": 2, "seed": 42})
    assert cli._run_job(job) == (False, rep.to_json_line())
