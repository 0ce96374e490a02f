"""Seeded benchmark of the `defsets` CLI.

Usage:
  python3 perfbench/run.py --workload {sat-min,color-min,verify-chain}
                           --seed N --seconds S --trace {0,1}

Run from the repository root.  Rounds of commands are answered by a fresh
worker process (`pool.py`) that drives `defsets.cli.main(argv)` in-process
on DIMACS files generated here from the seed; every answer is checked here
against an independent reference (`workloads.py`).

--trace 0 prints the end-to-end metrics; --trace 1 answers the pool once
traced and once untraced (same rounds, fresh processes) and prints the layer
metrics plus the tracing overhead.  The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}; a fuller report
goes to perfbench/out/, and a traced run's spans to perfbench/out/spans-*.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Callable, Dict, List, Optional

from spans import LAYER_METRICS
from workloads import (VERIFY_NAMES, WORKLOADS, Command, check_output,
                       is_heavy, make_round)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_SPAWNS = 5  # before and again after the pool, median of both
CHILD_TIMEOUT_S = 170
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import defsets.cli\n"
    "from defsets.colorreduce import synthesize_clause_gadget\n"
    "synthesize_clause_gadget()\n"
    "print(time.perf_counter() - t)\n")


class BenchError(Exception):
    pass


def setup_seconds() -> list:
    """Times, in fresh interpreters, to import defsets.cli and finish its
    lazy one-time set-up (the clause-gadget contract check)."""
    times = []
    for _ in range(SETUP_SPAWNS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(ROOT / "src")], cwd=ROOT,
            timeout=60, capture_output=True, text=True)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        times.append(float(proc.stdout))
    return times


def load_golden() -> Dict[str, str]:
    return {name: (HERE / "golden" / f"verify_{name}.txt").read_text()
            for name in VERIFY_NAMES}


def _session(workload: str, seed: int, seconds: float, spans: Optional[Path],
             first: int, rounds: Optional[int],
             mutate: Optional[Callable[[List[Command]], List[Command]]]) -> dict:
    """Answer rounds first, first+1, ... in one fresh worker process until
    the summed command wall time reaches `seconds` (or `rounds` rounds),
    after one warm-up round outside the pool.  This process generates the
    inputs between rounds, while the worker waits, and checks every answer."""
    spec = WORKLOADS[workload]
    golden = load_golden() if workload == "verify-chain" else None
    cmdline = [sys.executable, str(HERE / "pool.py"), str(spec.jobs)]
    if spans is not None:
        cmdline.append(str(spans))
    with tempfile.TemporaryFile("w+", dir=OUT) as errors, subprocess.Popen(
            cmdline, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=errors, text=True) as proc:
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()

        def exchange(line: str) -> object:
            proc.stdin.write(line + "\n")
            proc.stdin.flush()
            reply = proc.stdout.readline()
            if not reply:
                errors.seek(0)
                raise BenchError(f"worker exited early:\n{errors.read()[-2000:]}")
            return json.loads(reply)

        def send(commands: List[Command], keep: bool) -> list:
            return exchange(json.dumps({"keep": keep, "commands": [
                {"argv": c.argv + ([] if c.kind == "verify"
                                   else ["--format", "record"]),
                 "files": c.files} for c in commands]}))

        records, failures, spent, index = [], [], 0.0, first
        try:
            warm = make_round(workload, seed, -1, golden)
            send(mutate(warm) if mutate else warm, keep=False)
            while (spent < seconds if rounds is None else index - first < rounds):
                batch = make_round(workload, seed, index, golden)
                batch = mutate(batch) if mutate else batch
                for cmd, (code, out, err, wall) in zip(batch, send(batch, True)):
                    why = check_output(cmd, code, out)
                    spent += wall
                    records.append([index, cmd.kind, is_heavy(cmd), wall,
                                    why is None])
                    if why is not None:
                        failures.append(f"{' '.join(cmd.argv)}: {why} {err.strip()}")
                index += 1
            final = exchange("")
        except BaseException:
            proc.kill()  # leaving the with-block then waits for it
            raise
        finally:
            watchdog.cancel()
    return {"rounds": index - first, "records": records, "failures": failures,
            **final}


def answer(workload: str, seed: int, seconds: float, trace: int,
           rounds: Optional[int] = None,
           mutate: Optional[Callable[[List[Command]], List[Command]]] = None
           ) -> dict:
    """Answer rounds of the workload until the summed command wall time
    reaches `seconds` (or exactly `rounds` rounds).  A workload whose every
    round is the same fixed pass runs each pass in its own fresh worker, so
    no process answers an instance twice.  `mutate` rewrites each round's
    commands before they are sent (tests use it to corrupt a reference or
    shrink a round)."""
    per_worker = WORKLOADS[workload].rounds_per_worker
    OUT.mkdir(exist_ok=True)
    sessions: List[dict] = []
    done, spent = 0, 0.0
    while (done < rounds) if rounds is not None else (spent < seconds or not done):
        want = None if rounds is None else rounds - done
        if per_worker is not None:
            want = per_worker if want is None else min(want, per_worker)
        spans = OUT / f"spans-{workload}-{seed}-w{len(sessions)}.csv.gz" \
            if trace else None
        part = _session(workload, seed, seconds - spent, spans, done, want,
                        mutate)
        if spans is not None:
            part["spans"] = str(spans.relative_to(ROOT))
        sessions.append(part)
        done += part["rounds"]
        spent += sum(rec[3] for rec in part["records"])
    result = {"rounds": done,
              "records": [rec for s in sessions for rec in s["records"]],
              "failures": [f for s in sessions for f in s["failures"]][:20],
              "rss_mb": max(s["rss_mb"] for s in sessions)}
    if trace:
        result["spans"] = [s["spans"] for s in sessions]
        result["layers"] = {
            name: sum(s["layers"][name] * s["rounds"] for s in sessions) / done
            for name in sessions[0]["layers"]}
    return result


def _solved_per_s(result: dict) -> float:
    records = result["records"]
    return sum(ok for *_, ok in records) / sum(rec[3] for rec in records)


def _per_round_median(result: dict, heavy: bool) -> float:
    """Median over rounds of the summed wall time of the round's heavy (or
    quick) commands."""
    sums: Dict[int, float] = {}
    for index, _, is_heavy_cmd, wall, _ in result["records"]:
        if is_heavy_cmd == heavy:
            sums[index] = sums.get(index, 0.0) + wall
    return statistics.median(sums.values())


def end_to_end(result: dict, setup_s: float) -> dict:
    return {
        "solved_per_s": (_solved_per_s(result), "1/s"),
        "quick_ms": (_per_round_median(result, heavy=False) * 1000, "ms"),
        "heavy_s": (_per_round_median(result, heavy=True), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (result["rss_mb"], "MB"),
    }


def by_kind(result: dict) -> dict:
    """Per-command-kind counts and times, for the report file."""
    records = result["records"]
    out = {"rounds": result["rounds"],
           "fail_frac": sum(not ok for *_, ok in records) / len(records)}
    for kind in ("check", "min", "family-min", "verify"):
        walls = [wall for _, k, _, wall, _ in records if k == kind]
        if not walls:
            continue
        key = kind.replace("-", "_")
        out[f"{key}_count"] = len(walls)
        if kind == "check":
            out["check_p50_ms"] = statistics.median(walls) * 1000
        else:
            out[f"{key}_s"] = sum(walls)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "defsets" / "cli.py").is_file():
        print(f"error: no defsets sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    why = {w["name"]: w["why"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]}[args.workload]
    report = {"workload": args.workload, "seed": args.seed, "why": why,
              "jobs": spec.jobs, "sizes": spec.sizes, "seconds": args.seconds,
              "python": platform.python_version(), "nproc": os.cpu_count()}
    try:
        if args.trace:
            traced = answer(args.workload, args.seed, args.seconds, 1)
            plain = answer(args.workload, args.seed, args.seconds, 0,
                           rounds=traced["rounds"])
            results = [traced, plain]
            metrics = {name: (traced["layers"][name], unit)
                       for name, unit in LAYER_METRICS}
            metrics["trace.speed_ratio"] = (
                _solved_per_s(traced) / _solved_per_s(plain), "ratio")
            report["spans"] = traced["spans"]
            report["untraced"] = by_kind(plain)
        else:
            setup = setup_seconds()
            results = [answer(args.workload, args.seed, args.seconds, 0)]
            setup += setup_seconds()
            metrics = end_to_end(results[0], statistics.median(setup))
        report["by_kind"] = by_kind(results[0])
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attempted = sum(len(r["records"]) for r in results)
    failed = sum(not ok for r in results for *_, ok in r["records"])
    for r in results:
        for line in r["failures"]:
            print(f"FAILED {line}", file=sys.stderr)
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": {name: {"value": value, "unit": unit}
                           for name, (value, unit) in metrics.items()}}
    report.update(summary)
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{args.workload}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
