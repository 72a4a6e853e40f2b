"""Repo benchmark launcher: one workload, one fresh process, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload maxcut-cobyla --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the workload
untraced and then traced, probes the host read-modify-write bandwidth, and
prints the per-layer metrics.  The last stdout line is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
full record (machine stamp, checks, layer table), also written to
``.perfbench_out/``.  The exit code is non-zero when a correctness check
fails or the program cannot be run.

Process hygiene: every workload runs in a fresh interpreter with the BLAS
pools capped at one thread, ``REPRO_*`` variables removed, and the jit kernel
cache (``XDG_CACHE_HOME``) inside the checkout, primed by an untimed run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

#: The whole invocation must end within this many seconds.
DEADLINE_S = 170.0

WORKLOAD_NAMES = ("maxcut-cobyla", "labs-population", "serve-mixed", "cut-n36")


class BenchError(RuntimeError):
    """The program could not be run or produced no record."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        XDG_CACHE_HOME=str(OUT / "cache"),
        PYTHONHASHSEED="0",
    )
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Run a child to completion and parse the JSON on its last stdout line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting " + " ".join(args))
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[0]} timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(args)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def worker_args(opts, trace: int) -> list[str]:
    return [str(HERE / "worker.py"), "--workload", opts.workload,
            "--seed", str(opts.seed), "--seconds", str(opts.seconds),
            "--trace", str(trace)]


def traced_metrics(opts, deadline: float) -> tuple[dict, dict]:
    """Untraced run, traced run, host probe -> (per-layer metrics, record)."""
    base = run_child(worker_args(opts, 0), deadline)
    traced = run_child(worker_args(opts, 1), deadline)
    probe = run_child([str(HERE / "host.py"), str(traced["jit_threads"])],
                      deadline)
    metrics = traced["per_layer"]
    rmw = probe["rmw_gbps"]
    metrics["host.rmw_gbps"][0] = rmw
    for name, entry in metrics.items():
        if name.endswith(".gbps") and name.startswith("kernel."):
            metrics[name[:-len("gbps")] + "ceiling_frac"][0] = entry[0] / rmw
    # Tracing cost: per-operation latency, traced over untraced.
    metrics["trace.overhead_frac"][0] = (
        traced["end_to_end"]["latency_p50_ms"][0]
        / base["end_to_end"]["latency_p50_ms"][0] - 1.0)
    record = dict(traced)
    record["untraced"] = {k: base[k] for k in ("end_to_end", "latency_p99_ms",
                                                "checks", "attempted", "failed",
                                                "correct")}
    record["host_probe"] = probe
    record["attempted"] += base["attempted"]
    record["failed"] += base["failed"]
    record["correct"] = traced["correct"] and base["correct"]
    return metrics, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        primed = run_child([str(HERE / "worker.py"), "--prime"], deadline)
        if opts.trace:
            metrics, record = traced_metrics(opts, deadline)
        else:
            record = run_child(worker_args(opts, 0), deadline)
            metrics = record["end_to_end"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    record["jit_prime"] = primed
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{opts.workload}-seed{opts.seed}-trace{opts.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(record))
    print(json.dumps({
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
