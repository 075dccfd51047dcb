"""Smoke test of the benchmark itself, at the tiny size of every workload.

    python3 perfbench/smoke.py

For each workload it checks that
  * an untraced run exits 0 with no failed op and emits every end-to-end
    metric of BENCHMARK.json with its unit;
  * two traced runs with the same seed emit every per-layer metric with its
    unit and identical counts;
  * the negative control (deliberately wrong expected values) fails ops and
    exits non-zero, so the correctness gate is not vacuous;
and that the benchmark exits non-zero without a result when the checkout holds
only BENCHMARK.json and the benchmark's own files.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import EXACT  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    p = subprocess.run([sys.executable, "perfbench/run.py", "--size", "tiny", *args],
                       cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return p.returncode, result


def check_metrics(result, specs, errors, where):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    for spec in specs:
        got = result["metrics"].get(spec["name"])
        if got is None or got.get("unit") != spec["unit"]:
            errors.append(f"{where}: metric {spec['name']} missing or has the wrong unit")
    extra = set(result["metrics"]) - {s["name"] for s in specs}
    if extra:
        errors.append(f"{where}: unexpected metrics {sorted(extra)}")


def main() -> int:
    errors = []
    for wl in (w["name"] for w in SPEC["workloads"]):
        common = ["--workload", wl, "--seed", "3", "--seconds", "1"]
        code, res = bench(*common, "--trace", "0")
        if code != 0 or res is None or res["failed"] or not res["correct"]:
            errors.append(f"{wl}: untraced run exit {code}, result {res}")
        else:
            check_metrics(res, SPEC["end_to_end"], errors, f"{wl} untraced")

        traced = [bench(*common, "--trace", "1") for _ in range(2)]
        if any(code != 0 or res is None or not res["correct"] for code, res in traced):
            errors.append(f"{wl}: traced runs {[code for code, _ in traced]}")
        else:
            check_metrics(traced[0][1], SPEC["per_layer"], errors, f"{wl} traced")
            counts = [{k: v["value"] for k, v in res["metrics"].items() if k in EXACT}
                      for _, res in traced]
            if counts[0] != counts[1]:
                diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
                errors.append(f"{wl}: traced counts differ between runs: {diff}")

        code, res = bench(*common, "--trace", "0", "--negative-control")
        if code == 0 or res is None or not res["failed"] or res["correct"]:
            errors.append(f"{wl}: negative control did not fail (exit {code}, {res})")
        print(f"{wl}: checked", flush=True)

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    code, res = bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                      "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or res is not None:
        errors.append(f"bare checkout: exit {code}, result {res}")

    for e in errors:
        print(f"FAIL {e}")
    print("smoke test", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
