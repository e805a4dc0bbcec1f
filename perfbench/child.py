"""The measured process: set up one workload, run its rounds, report JSON.

Started by run.py in a fresh interpreter, so the package's memo caches
start empty and ``ru_maxrss`` belongs to this workload alone.  The last
line of standard output is one JSON object; everything else goes to
standard error.

Usage: python3 perfbench/child.py --workload NAME --seed N --seconds S
       [--trace 0|1] [--setup-only]
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

clock = time.perf_counter


def _setup(workload: str, seed: int):
    """Import the package and build every workload input; returns the plan
    and the seconds it took (counted from before the first package import)."""
    start = clock()
    import workloads

    plan = workloads.WORKLOADS[workload](seed)
    elapsed = clock() - start
    _settle()
    return workloads, plan, elapsed


def _settle() -> None:
    # Inputs held by the benchmark (the tableau universes) should not be
    # rescanned by every full collection during the timed ops.
    gc.collect()
    gc.freeze()


class Log:
    """Per-op outcomes of a sequence of rounds."""

    def __init__(self):
        self.latency_ms: list[float] = []        # ops that passed their check
        self.all_ms: list[float] = []            # every op attempted
        self.by_kind: dict[str, list[float]] = {}
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.first_failure: str | None = None
        self.rounds = 0
        self.elapsed = 0.0

    @property
    def ops_ok(self) -> int:
        return len(self.latency_ms)

    @property
    def ops_attempted(self) -> int:
        return sum(self.attempted.values())


def run_rounds(plan, workloads, log: Log, *, seconds=None, rounds=None, tracer=None, cache_totals=None):
    """Run whole rounds until ``seconds`` have passed or ``rounds`` are done."""
    start = clock()
    done = 0
    op_id = 0
    while True:
        if rounds is not None and done >= rounds:
            break
        if seconds is not None and done and clock() - start >= seconds:
            break
        plan.before_round()
        for op in plan.rounds[done % len(plan.rounds)]:
            t0 = clock()
            try:
                if tracer is None:
                    result = op.run()
                else:
                    tracer.op_id = op_id
                    result = tracer.span("op." + op.kind, op.run)
                problem = op.check(result)
            except Exception as exc:  # an op that raises is a failed op
                problem = f"raised {type(exc).__name__}: {exc}"
            ms = (clock() - t0) * 1000.0
            op_id += 1
            log.attempted[op.kind] = log.attempted.get(op.kind, 0) + 1
            log.all_ms.append(ms)
            if problem is None:
                log.latency_ms.append(ms)
                log.by_kind.setdefault(op.kind, []).append(ms)
            else:
                log.failed[op.kind] = log.failed.get(op.kind, 0) + 1
                if log.first_failure is None:
                    log.first_failure = f"{op.label}: {problem}"
                    print(f"first failing op: {log.first_failure}", file=sys.stderr, flush=True)
        if cache_totals is not None:
            for name, (hits, misses) in workloads.cache_stats().items():
                cache_totals[name][0] += hits
                cache_totals[name][1] += misses
        done += 1
    log.rounds += done
    log.elapsed += clock() - start
    return done


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def end_to_end(log: Log) -> dict:
    # latencies of the ops that passed; of every op if none did
    latency = log.latency_ms or log.all_ms
    return {
        "ops_per_s": log.ops_ok / log.elapsed,
        "op_p50_ms": statistics.median(latency),
        "op_p90_ms": p90(latency),
        "ops_ok_frac": log.ops_ok / log.ops_attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_kind(log: Log) -> dict:
    out = {}
    for kind, n in log.attempted.items():
        lat = log.by_kind.get(kind, [])
        out[kind] = {
            "attempted": n,
            "failed": log.failed.get(kind, 0),
            "p50_ms": statistics.median(lat) if lat else None,
            "total_s": sum(lat) / 1000.0,
        }
    return out


def per_layer(tracer, setup_tracer, cache_totals, rounds: int) -> dict:
    """Per-layer numbers of the traced rounds, per round; see README.md."""
    st, calls, outer, counts = tracer.self_time, tracer.calls, tracer.outer_calls, tracer.counts

    def hits_misses(name):
        return cache_totals[name][0] / rounds, cache_totals[name][1] / rounds

    children_hits, children_misses = hits_misses("permcore.children")
    ext_hits, ext_misses = hits_misses("permcore.extendable")
    fp_hits, fp_misses = hits_misses("gengraph.fingerprint")
    values = {
        "kernels.count_calls": calls["kernels.count"],
        "kernels.count_s": st["kernels.count"],
        "counting.enumerate_s": st["counting.enumerate"],
        "counting.objects_enumerated": counts["counting.objects_enumerated"],
        "counting.extended_table_s": st["counting.extended_table"],
        "counting.extended_cells": counts["counting.extended_cells"],
        "series.expand_calls": calls["series.expand"],
        "series.expand_s": st["series.expand"],
        "permcore.children_calls": calls["permcore.children"],
        "permcore.children_s": st["permcore.children"],
        "gengraph.discover_s": st["gengraph.discover"],
        "gengraph.classes_discovered": counts["gengraph.classes_discovered"],
        "gengraph.validate_s": st["gengraph.validate"],
        "gengraph.walk_series_s": st["gengraph.walk_series"],
        "gengraph.iso_s": st["gengraph.iso"],
        "gengraph.codec_s": st["gengraph.codec"],
        "bijections.map_s": st["bijections.map"],
        "bijections.objects_mapped": outer["bijections.map"],
        "tableau.validations": counts["tableau.validations"],
        "tableau.enumerate_s": st["tableau.enumerate"],
        "involutions.bk_generators": counts["involutions.bk_generators"],
        "involutions.bk_s": st["involutions.bk"],
        "involutions.switch_s": st["involutions.switch"],
        "involutions.slide_s": st["involutions.slide"],
        "involutions.diagram_s": st["involutions.diagram"],
        "involutions.rsk_s": st["involutions.rsk"],
    }
    for layer in ("kernels", "counting", "series", "permcore", "gengraph", "bijections", "tableau", "involutions"):
        values[f"{layer}.errors"] = counts[f"{layer}.errors"]
    out = {name: value / rounds for name, value in values.items()}
    out.update(
        {
            "permcore.children_hits": children_hits,
            "permcore.children_misses": children_misses,
            "permcore.extendable_hits": ext_hits,
            "permcore.extendable_misses": ext_misses,
            "permcore.extendable_hit_ratio": ext_hits / (ext_hits + ext_misses) if ext_hits + ext_misses else 0.0,
            "gengraph.fingerprint_hits": fp_hits,
            "gengraph.fingerprint_misses": fp_misses,
            "tableau.setup_validations": setup_tracer.counts["tableau.validations"],
            "tableau.setup_enumerate_s": setup_tracer.self_time["tableau.enumerate"],
        }
    )
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    if args.setup_only:
        _, _, setup_s = _setup(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result: dict = {}
    if not args.trace:
        workloads, plan, setup_s = _setup(args.workload, args.seed)
        log = Log()
        run_rounds(plan, workloads, log, seconds=args.seconds)
        result["metrics"] = dict(end_to_end(log), setup_s=setup_s)
    else:
        import tracer as tracing
        import workloads

        # setup is traced on its own, for the setup-side tableau counters
        setup_tracer = tracing.Tracer()
        tracing.install_layers(setup_tracer)
        plan = workloads.WORKLOADS[args.workload](args.seed)
        setup_tracer.uninstall()
        _settle()
        # the same rounds untraced, then traced: the difference is the overhead
        log = Log()
        rounds = run_rounds(plan, workloads, log, seconds=args.seconds / 2)
        untraced_rate = log.ops_ok / log.elapsed
        traced = Log()
        tracer = tracing.Tracer()
        tracing.install_layers(tracer)
        cache_totals = {name: [0, 0] for name in workloads.CACHES}
        run_rounds(plan, workloads, traced, rounds=rounds, tracer=tracer, cache_totals=cache_totals)
        tracer.uninstall()
        traced_rate = traced.ops_ok / traced.elapsed
        metrics = per_layer(tracer, setup_tracer, cache_totals, rounds)
        metrics.update(
            {
                "trace.rounds": rounds,
                "trace.untraced_ops_per_s": untraced_rate,
                "trace.traced_ops_per_s": traced_rate,
                "trace.overhead_frac": 1.0 - traced_rate / untraced_rate if untraced_rate else 0.0,
            }
        )
        result["metrics"] = metrics
        result["spans_recorded"] = len(tracer.records)
        result["spans_dropped"] = tracer.dropped
        # the spans of the latest traced run of each workload
        out = Path(__file__).resolve().parent / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"{args.workload}-spans.json")
        for kind, n in traced.attempted.items():
            log.attempted[kind] = log.attempted.get(kind, 0) + n
        for kind, n in traced.failed.items():
            log.failed[kind] = log.failed.get(kind, 0) + n
        log.first_failure = log.first_failure or traced.first_failure

    result.update(
        {
            "attempted": log.ops_attempted,
            "failed": sum(log.failed.values()),
            "first_failure": log.first_failure,
            "rounds": log.rounds,
            "timed_s": log.elapsed,
            "ops_per_round": len(plan.rounds[0]),
            "per_kind": per_kind(log),
            "limits": dataclasses.asdict(workloads.LIMITS),
        }
    )
    import permutoria

    result["engine"] = permutoria.engine_name()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
