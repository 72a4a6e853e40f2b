"""Self-check of the benchmark harness (about three minutes).

    python3 perfbench/selfcheck.py

Runs every workload for one second, untraced and traced, and asserts that

* each run exits 0 with ``correct`` true and nothing failed;
* the metric names and units printed equal those in ``BENCHMARK.json``
  (``end_to_end`` untraced, ``per_layer`` traced);
* the traced run's ``trace.accounted_frac`` reaches ``ACCOUNTED_MIN``;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` (no
  program), the launcher exits non-zero without printing a result.

Exits non-zero if any assertion fails.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Share of a workload's traced wall clock its layer spans must cover.
ACCOUNTED_MIN = 0.9


def run(args: list[str], cwd: Path) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not (isinstance(result, dict) and "metrics" in result):
        result = None
    return proc.returncode, result


def check_spec(spec: dict) -> list[str]:
    """The parts of the BENCHMARK.json contract a typo could break."""
    problems = []
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
    if len(names) != len(set(names)):
        problems.append("duplicate names")
    problems += [f"bad name {n!r}" for n in names if not NAME.match(n)]
    problems += [f"bad unit {m['unit']!r}" for m in metrics
                 if not UNIT.match(m["unit"])]
    problems += [f"why too long: {w['name']}" for w in spec["workloads"]
                 if len(w["why"]) > 200 or "\n" in w["why"]]
    problems += [f"bound out of range: {m['name']}" for m in spec["end_to_end"]
                 if not 0 < m["bound"] <= 0.25]
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must carry the largest bound")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = check_spec(spec)
    expected = {0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
                1: [(m["name"], m["unit"]) for m in spec["per_layer"]]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            tag = f"{workload} --trace {trace}"
            before = len(failures)
            code, result = run(["--workload", workload, "--seed", "1",
                                "--seconds", "1", "--trace", str(trace)], ROOT)
            if code != 0 or result is None:
                failures.append(f"{tag}: exit {code}, result {result is not None}")
                print(f"{tag}: FAILED", flush=True)
                continue
            if not result["correct"] or result["failed"]:
                failures.append(f"{tag}: correct={result['correct']} "
                                f"failed={result['failed']}")
            got = [(k, v["unit"]) for k, v in result["metrics"].items()]
            if got != expected[trace]:
                failures.append(f"{tag}: metrics differ from BENCHMARK.json")
            if trace:
                accounted = result["metrics"]["trace.accounted_frac"]["value"]
                print(f"{workload}: trace.accounted_frac {accounted:.3f}")
                if accounted < ACCOUNTED_MIN:
                    failures.append(f"{tag}: accounted_frac {accounted:.3f}")
            print(f"{tag}: {'ok' if len(failures) == before else 'FAILED'}",
                  flush=True)

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result = run(["--workload", "cut-n36", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], bare)
    if code == 0 or result is not None:
        failures.append(f"bare directory: exit {code}, printed a result")
    shutil.rmtree(bare)

    for failure in failures:
        print("FAIL", failure)
    print("selfcheck", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
