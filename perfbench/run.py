"""Closed-loop benchmark of permutoria: one caller, one thread, checked ops.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload perm-count --seed 1 --seconds 35 --trace 0

The package is imported from ``src`` with no build step, as the tier-1
tests import it, so the engine is whatever ``src`` provides.  Each
measurement runs in a fresh child process (perfbench/child.py) whose
environment has ``PERMUTORIA_LIMITS`` and ``PERMUTORIA_PURE`` removed.

``--trace 0`` prints the end-to-end metrics; ``setup_s`` is the median over
3 to 9 fresh processes that each import the package and build the inputs.
``--trace 1`` prints the per-layer metrics of a traced run and the tracing
overhead.  Either way the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it give the metrics by name with their units and the run's
metadata, which is also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "permutoria"
OUT = HERE / "out"
RUN_BUDGET_S = 175  # the whole run, every child included
# setup_s is the median over the measured process and set-up-only processes
# run before and after it, so that the samples span the run: on each side
# one, then more (up to SIDE_SAMPLES) while their total is under SIDE_S
SIDE_SAMPLES = 4
SIDE_S = 1.5


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PERMUTORIA_LIMITS", "PERMUTORIA_PURE")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Run perfbench/child.py to completion; its last stdout line is JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before starting a child")
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        timeout=timeout,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child {args} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")) + sorted(PACKAGE.glob("*.pyx")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no package sources at {PACKAGE}", file=sys.stderr)
        return 2
    bench = spec()
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    wanted = [m["name"] for m in (bench["per_layer"] if args.trace else bench["end_to_end"])]

    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if args.trace:
            main_run = run_child(common + ["--trace", "1"], deadline)
        else:
            def side() -> list[float]:
                out: list[float] = []
                while len(out) < SIDE_SAMPLES and (not out or sum(out) < SIDE_S):
                    out.append(run_child(common + ["--setup-only"], deadline)["setup_s"])
                return out

            setups = side()
            main_run = run_child(common, deadline)
            setups += [main_run["metrics"]["setup_s"]] + side()
            main_run["metrics"]["setup_s"] = statistics.median(setups)
            main_run["setup_samples_s"] = setups
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    missing = [name for name in wanted if name not in main_run["metrics"]]
    if missing:
        print(f"error: the run did not produce {missing}", file=sys.stderr)
        return 1
    metrics = {name: {"value": main_run["metrics"][name], "unit": units[name]} for name in wanted}
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        **{k: v for k, v in main_run.items() if k != "metrics"},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "metrics": metrics}, indent=1)
    )
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")
    print("meta " + json.dumps(meta))
    print(
        json.dumps(
            {
                "correct": main_run["failed"] == 0,
                "attempted": main_run["attempted"],
                "failed": main_run["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
