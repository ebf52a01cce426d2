"""Benchmark runner for the ``subvacuum`` command line.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each workload's passes run serially, one fresh child interpreter per pass
(``child.py``), until the next pass would overrun ``--seconds``.  Extra
set-up-only children top the set-up samples up to ``SETUP_SAMPLES``.  Every
command's exit code and output are checked.

``--trace 0`` reports the end-to-end metrics (set-up time, job time, peak
RSS).  ``--trace 1`` runs each pass twice, untraced then traced with the
out-of-tree layer tracer, and reports the per-layer metrics plus the tracing
overhead (traced minus untraced job time).

Diagnostics go to stdout first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record with
provenance and every sample is written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import summarize, weighted_median
from tracer import PER_LAYER
from workloads import WORKLOADS, W_RIDGE, tally

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
OUT_DIR = ROOT / ".perfbench"

END_TO_END = (("setup_s", "s"), ("job_s", "s"), ("peak_rss_mb", "MB"))
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class PassError(RuntimeError):
    """A child interpreter exited abnormally."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_child(commands, trace: bool, spans: str | None = None) -> dict:
    """Run one pass in a fresh interpreter; set-up is spawn to parser-ready."""
    spec = {
        "src": str(ROOT / "src"),
        "commands": [{"argv": c.argv, "out": c.out} for c in commands],
        "trace": trace,
        "spans": spans,
    }
    spawned = _now()
    proc = subprocess.run(
        [sys.executable, str(CHILD)],
        input=json.dumps(spec),
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    wall = _now() - spawned
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - spawned
    report["wall_s"] = wall
    return report


def check_pass(commands, report) -> list[tuple]:
    """Check each command's exit code and output; see ``workloads.tally``."""
    outcomes = []
    for command, result in zip(commands, report["commands"]):
        problems, stats = [], {}
        if result["rc"] != command.expect_rc:
            problems.append(f"exit {result['rc']}, expected {command.expect_rc}")
        else:
            try:
                problems, stats = command.check(command.out)
            except (OSError, ValueError, KeyError, IndexError, csv.Error) as exc:
                problems.append(f"unreadable output: {exc!r}")
        for p in problems:
            print(f"  CHECK FAILED {' '.join(command.argv[:3])}: {p}")
        outcomes.append((result["rc"], command.expect_rc, problems, stats))
    return outcomes


def provenance(seed: int, versions: dict, samples: dict) -> dict:
    def git(*args):
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    in_repo = git("rev-parse", "--show-toplevel") == str(ROOT)
    status = git("status", "--porcelain", "--untracked-files=no") if in_repo else None
    return {
        "git_sha": git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": bool(status) if status is not None else None,
        "versions": versions,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "seed": seed,
        "samples": samples,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    rng = random.Random(f"{name}:{seed}")
    work = OUT_DIR / "work"
    results = OUT_DIR / "results"
    work.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    make_pass = WORKLOADS[name]

    outcomes, passes, traced, pair_overheads = [], [], [], []
    start = _now()
    while True:
        commands = make_pass(rng, str(work))
        try:
            report = run_child(commands, trace=False)
            outcomes += check_pass(commands, report)
            passes.append(report)
            if trace:
                spans = str(results / f"{name}-seed{seed}-pass{len(traced)}.spans.jsonl")
                t_report = run_child(commands, trace=True, spans=spans)
                outcomes += check_pass(commands, t_report)
                traced.append(t_report)
                overhead = t_report["job_s"] - report["job_s"]
                pair_overheads.append(overhead)
                # Layer self times must account for the traced job time.
                gap = abs(t_report["job_s"] - t_report["self_sum_s"])
                ok = gap <= max(overhead, 1e-3)
                outcomes.append((0, 0, [] if ok else [f"self-time gap {gap:.6f} s"], {}))
        except (PassError, subprocess.TimeoutExpired) as exc:
            print(f"  PASS FAILED: {exc}")
            outcomes += [(None, c.expect_rc, ["pass failed"], {}) for c in commands]
        elapsed = _now() - start
        walls = [p["wall_s"] for p in passes] + [p["wall_s"] for p in traced]
        if passes:
            print(f"  {name} pass {len(passes)}: job {passes[-1]['job_s']:.4f} s", flush=True)
        if not passes or elapsed + sum(walls) / len(passes) > seconds:
            break

    if not passes or (trace and not traced):
        raise PassError(f"{name}: no pass completed")
    setups = [p["setup_s"] for p in passes + traced]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child([], trace=False)["setup_s"])

    attempted, failed = tally(outcomes)
    gaps = [g for _, _, _, stats in outcomes for g in stats.get("ridge_gaps", ())]
    samples = {
        "setup_s": setups,
        "job_s": [p["job_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
    }
    record = {
        "workload": name,
        "trace": trace,
        "provenance": provenance(seed, passes[0]["versions"], {k: len(v) for k, v in samples.items()}),
        "samples": samples,
        "summary": {k: summarize(v) for k, v in samples.items()},
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "ridge_gap_p50": weighted_median(gaps) if gaps else None,
    }
    if trace:
        record["traced_job_s"] = [t["job_s"] for t in traced]
        record["layers"] = {
            metric: statistics.median(t["layers"][metric] for t in traced)
            for metric, _ in PER_LAYER
            if metric != "trace.overhead_s"
        }
        record["layers"]["trace.overhead_s"] = statistics.median(pair_overheads)
        record["metrics"] = {m: {"value": record["layers"][m], "unit": u} for m, u in PER_LAYER}
    else:
        record["metrics"] = {m: {"value": record["summary"][m]["median"], "unit": u} for m, u in END_TO_END}
    record["correct"] = failed == 0

    out = results / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return record


def print_record(rec: dict) -> None:
    print(f"== {rec['workload']} (trace {int(rec['trace'])})")
    print("provenance " + json.dumps(rec["provenance"], sort_keys=True))
    for name, unit in END_TO_END:
        s = rec["summary"][name]
        print(f"  {name:<14} {s['median']:.6g} {unit}  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    print(f"  {'proc.cpu_s':<14} {rec['summary']['cpu_s']['median']:.6g} s  (diagnostic)")
    print(f"  {'fail_ratio':<14} {rec['fail_ratio']:.6g} ratio  ({rec['failed']}/{rec['attempted']})")
    if rec["ridge_gap_p50"] is not None:
        print(f"  {'ridge_gap_p50':<14} {rec['ridge_gap_p50']:.6g} 1  (W(1/e) - F, W(1/e) = {W_RIDGE})")
    if rec["trace"]:
        for name, unit in PER_LAYER:
            print(f"  {name:<40} {rec['layers'][name]:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "subvacuum" / "cli.py").is_file():
        print(f"error: no subvacuum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        records = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for rec in records:
        print_record(rec)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in records for m, v in r["metrics"].items()}
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
