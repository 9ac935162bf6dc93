"""Benchmark of ugcaudio: set up a workload, run it for a while, check it.

    python3 perfbench/run.py --workload organise --seed 1 --seconds 15 --trace 0

Run from any directory; the package is imported from `src/` of the checkout
this file sits in. `--trace 0` prints the end-to-end metrics, `--trace 1`
wraps the layers' public functions and prints per-layer metrics instead.
`--workload all` runs every workload, each untraced and traced in its own
process, and adds the tracing overhead. The last line of standard output is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "audio_s_per_s": "audio_s/s",
    "step_ms": "ms",
}


class Timer:
    elapsed = 0.0


class Clock:
    """Times measured spans of work; switches the span recorder on inside them."""

    def __init__(self, recorder=None):
        self.recorder = recorder

    @contextlib.contextmanager
    def measure(self, trace: bool = True):
        timer = Timer()
        if self.recorder is not None:
            self.recorder.active = trace
        start = time.perf_counter()
        try:
            yield timer
        finally:
            timer.elapsed = time.perf_counter() - start
            if self.recorder is not None:
                self.recorder.active = False


def import_program() -> None:
    """Import ugcaudio from this checkout's src/, or exit 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "ugcaudio" / "__init__.py").is_file():
        print(f"error: no ugcaudio package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import ugcaudio

    if Path(ugcaudio.__file__).resolve().parent != (src / "ugcaudio").resolve():
        print(f"error: imported ugcaudio from {ugcaudio.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import_program()
    work = HERE / "work" / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    try:
        # Inputs are made in a child so their memory stays out of peak_rss_mb.
        subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), name, str(work), str(seed)],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            check=True,
        )
        workload = workloads.WORKLOADS[name](work, seed)
        workload.load()
        setup_s = time.perf_counter() - PROCESS_START

        recorder = spans.Recorder() if trace else None
        if recorder is not None:
            spans.install(recorder)
        clock = Clock(recorder)
        rounds = []
        # Whole rounds until the measured time reaches `seconds`.
        while not rounds or sum(r.busy_s for r in rounds) < seconds:
            rounds.append(workload.round(clock))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    errors = [e for r in rounds for e in r.errors]
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    if trace:
        metrics = layer_metrics(recorder, rounds)
    else:
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "audio_s_per_s": sum(r.audio_s for r in rounds) / sum(r.busy_s for r in rounds),
            "step_ms": 1000.0 * statistics.median(s for r in rounds for s in r.step_s),
        }
    units = spans.PER_LAYER if trace else END_TO_END
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    detail = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "rounds": len(rounds),
        "round_busy_s": [r.busy_s for r in rounds],
        "errors": errors,
        "result": result,
    }
    if recorder is not None:
        detail["spans"] = len(recorder.names)
        detail["span_cost_s"] = spans.span_cost_s()
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    if recorder is not None:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(recorder.to_json()), encoding="utf-8")
    return result


def layer_metrics(recorder, rounds) -> dict:
    metrics = spans.aggregate(recorder, len(rounds))
    agree = sum(r.quality_agree for r in rounds)
    pairs = sum(r.quality_pairs for r in rounds)
    metrics["timeline.quality_snr_concordance"] = agree / pairs if pairs else 0.0
    metrics["timeline.quality_snr_pairs"] = pairs / len(rounds)
    return metrics


def run_all(seed: int, seconds: float) -> dict:
    """Each workload untraced, then traced, in processes of their own."""
    summary = {}
    for name in workloads.WORKLOADS:
        runs = []
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.exit(f"error: {name} (trace {trace}) exited {proc.returncode}")
            detail = json.loads((RESULTS / f"{name}-seed{seed}-trace{trace}.json").read_text())
            runs.append(detail)
        plain, traced = runs
        per_round = [sum(d["round_busy_s"]) / d["rounds"] for d in runs]
        overhead = {
            # Two runs apart: the machine's drift between them shows here too.
            "gap": per_round[1] / per_round[0] - 1.0,
            # Spans recorded times the cost of one, over the traced busy time.
            "span_cost": traced["spans"] * traced["span_cost_s"] / sum(traced["round_busy_s"]),
        }
        summary[name] = {**plain["result"], "per_layer": traced["result"]["metrics"], "tracing_overhead": overhead}
        print(f"== {name}: attempted {plain['result']['attempted']}, failed {plain['result']['failed']}, "
              f"correct {plain['result']['correct']}")
        for key, m in {**plain["result"]["metrics"], **traced["result"]["metrics"]}.items():
            print(f"   {key:42s} {m['value']:>14.6g} {m['unit']}")
        print(f"   {'tracing overhead: traced/untraced round - 1':42s} {overhead['gap']:>14.2%}")
        print(f"   {'tracing overhead: spans x cost per span':42s} {overhead['span_cost']:>14.2%}"
              f"  ({traced['spans']} spans, {traced['span_cost_s'] * 1e6:.2f} us each)")
    (RESULTS / f"all-seed{seed}.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return {
        "correct": all(s["correct"] for s in summary.values()),
        "attempted": sum(s["attempted"] for s in summary.values()),
        "failed": sum(s["failed"] for s in summary.values()),
        "metrics": {f"{w}/{k}": m for w, s in summary.items() for k, m in s["metrics"].items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
