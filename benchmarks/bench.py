"""Compare two revisions on the repository benchmark in alternating pairs.

Usage (from anywhere inside the repository):

    python3 benchmarks/bench.py --base HEAD~1 --pr N
    python3 benchmarks/bench.py --base HEAD~3 --head HEAD~1 --pr N \
        --workloads ext-graph --seeds 11,12,13,14,15,16,17,18,19,20

By default ten seeds run, so each workload gets ten pairs, the fewest from
which a gain can be read: the head must be better in nine pairs of ten.

Each revision is exported with ``git archive`` into a temporary directory,
which is removed afterwards, so the benchmark runs the committed files and
the working tree and ``.git`` are left as they are.  For every workload and
seed, ``perfbench/run.py --trace 0`` runs once on each side, for the
``run_seconds`` of the head's ``BENCHMARK.json``; the side that
goes first alternates from pair to pair, so slow drift of the host hits
both sides alike.  ``BENCH_<pr>.json`` at the repository root receives both
shas, every run's end-to-end metrics and, per metric, the median and
quartiles of each side, the relative change of the medians, the number
of pairs in which the head was better, whether the head's median is worse
than the base's by more than the metric's ``bound`` (``worse_than_bound``),
whether it lies outside the base's quartiles (``outside_base_quartiles``)
and whether the pairs show a gain (``gain_shown``): at least ten pairs,
the head better in at least nine tenths of them (ties count for neither
side), and the head's median better than the base's by more than the
distance between the base's quartiles.  Each run also keeps, per op kind, the
median latency ``p50_ms`` and the total ``total_s`` from perfbench's
``meta`` line, with ``s_per_round``, that total divided by the run's
rounds; each workload's ``per_kind`` holds both sides' medians of these
numbers, so a change can be traced to the op kinds it moves.  The file is
rewritten after every pair, so an interrupted run keeps what it measured.
Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path


def git(repo: Path, *args: str) -> bytes:
    return subprocess.run(
        ["git", "-C", str(repo), *args], check=True, stdout=subprocess.PIPE
    ).stdout


def export(repo: Path, sha: str, dest: Path) -> None:
    """Write the tree of commit sha into dest."""
    with tarfile.open(fileobj=io.BytesIO(git(repo, "archive", sha)), mode="r:") as tar:
        tar.extractall(dest, filter="data")


def run_side(
    checkout: Path, workload: str, seed: int, seconds: float
) -> tuple[dict[str, float], dict[str, dict]]:
    """One run's end-to-end metrics, and per op kind its median latency,
    its total time and that total per round (from the ``meta`` line)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} in {checkout}: {result['failed']} ops failed")
    meta = json.loads(next(line for line in lines if line.startswith("meta "))[5:])
    kinds = {
        kind: {"p50_ms": k["p50_ms"], "total_s": k["total_s"],
               "s_per_round": k["total_s"] / meta["rounds"]}
        for kind, k in meta["per_kind"].items()
    }
    return {name: m["value"] for name, m in result["metrics"].items()}, kinds


def spread(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict], spec: dict) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        base = [run["base"][name] for run in runs]
        head = [run["head"][name] for run in runs]
        b, h = spread(base), spread(head)
        better = sum((y > x) if higher else (y < x) for x, y in zip(base, head))
        worse = b["median"] - h["median"] if higher else h["median"] - b["median"]
        pairs = len(runs)
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "base": b,
            "head": h,
            "change": (h["median"] - b["median"]) / b["median"] if b["median"] else None,
            "pairs_head_better": better,
            "worse_than_bound": worse > metric["bound"] * abs(b["median"]),
            "outside_base_quartiles": not b["q1"] <= h["median"] <= b["q3"],
            "gain_shown": pairs >= 10 and 10 * better >= 9 * pairs and -worse > b["q3"] - b["q1"],
        }
    return out


def summarize_kinds(runs: list[dict]) -> dict:
    """Per op kind and side, the median of each per-kind number over the runs."""
    out: dict = {}
    for run in runs:
        for side in ("base", "head"):
            for kind, numbers in run["per_kind"][side].items():
                for key, value in numbers.items():
                    if value is not None:
                        out.setdefault(kind, {}).setdefault(side, {}).setdefault(key, []).append(value)
    return {
        kind: {side: {key: statistics.median(values) for key, values in numbers.items()}
               for side, numbers in sides.items()}
        for kind, sides in sorted(out.items())
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="revision before the change, e.g. HEAD~1")
    ap.add_argument("--head", default="HEAD", help="revision with the change")
    ap.add_argument("--pr", required=True, help="names the output file BENCH_<pr>.json")
    ap.add_argument("--workloads", default="ext-graph,perm-count,tableau-laws")
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    args = ap.parse_args()

    repo = Path(git(Path.cwd(), "rev-parse", "--show-toplevel").decode().strip())
    shas = {side: git(repo, "rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
            for side, rev in (("base", args.base), ("head", args.head))}
    workloads = [w for w in args.workloads.split(",") if w]
    seeds = [int(s) for s in args.seeds.split(",") if s]
    out_path = repo / f"BENCH_{args.pr}.json"
    report = {
        "base": {"rev": args.base, "sha": shas["base"]},
        "head": {"rev": args.head, "sha": shas["head"]},
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="permutoria-bench-") as tmp:
        dirs = {side: Path(tmp) / side for side in shas}
        for side, sha in shas.items():
            export(repo, sha, dirs[side])
        spec = json.loads((dirs["head"] / "BENCHMARK.json").read_text())
        report["seconds"] = spec["run_seconds"]
        for workload in workloads:
            runs: list[dict] = []
            entry = report["workloads"][workload] = {"runs": runs}
            for i, seed in enumerate(seeds):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                run = {"seed": seed, "order": list(order), "per_kind": {}}
                for side in order:
                    run[side], run["per_kind"][side] = run_side(
                        dirs[side], workload, seed, spec["run_seconds"])
                    print(f"{workload} seed {seed} {side}: {run[side]['ops_per_s']:.2f} op/s",
                          file=sys.stderr, flush=True)
                runs.append(run)
                entry["metrics"] = summarize(runs, spec)
                entry["per_kind"] = summarize_kinds(runs)
                out_path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
