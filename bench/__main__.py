"""Command line: ``python3 -m bench run|trace|compare`` (see bench/README.md).

``run`` measures the end-to-end metrics untraced (``--trace 1`` switches
to the traced per-layer replica, as ``trace`` does).  With one
``--workload`` it runs in this process; with ``all`` (the default) each
workload runs in its own subprocess.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from bench.runner import ROOT, Session, check_checkout, measure
from bench.workloads import WORKLOADS

DEFAULT_SEED = 2004
#: BENCHMARK.json ``run_seconds``.
DEFAULT_SECONDS = 30


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "trace"):
        command = sub.add_parser(name)
        command.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
        command.add_argument("--seed", type=int, default=DEFAULT_SEED)
        command.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                             help="time box of the timed passes of one workload")
        command.add_argument("--smoke", action="store_true",
                             help=f"{len(WORKLOADS)} workloads x 3 projects x 1 pass")
        command.add_argument("--out", type=Path, default=None,
                             help="append every workload run's full result to this JSON list")
        if name == "run":
            command.add_argument("--trace", type=int, choices=(0, 1), default=0)
    compare = sub.add_parser("compare", help="judge HEAD runs against BASE runs")
    compare.add_argument("base", type=Path)
    compare.add_argument("head", type=Path)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "compare":
        from bench.compare import compare

        return compare(args.base, args.head)
    check_checkout()
    traced = args.command == "trace" or args.trace == 1
    if args.workload == "all":
        return _run_all(args, traced)
    return _run_one(args, traced)


def _run_one(args: argparse.Namespace, traced: bool) -> int:
    work = ROOT / "bench" / "out" / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    try:
        session = Session(WORKLOADS[args.workload], args.seed, args.smoke, work)
        if traced:
            from bench.replica import trace

            result = trace(session, args.seconds)
        else:
            result = measure(session, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        os.sync()
    _print_summary(args.workload, args.seed, traced, result)
    if args.out is not None:
        _append(args.out, {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": int(traced), "smoke": args.smoke, **result,
        })
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def _run_all(args: argparse.Namespace, traced: bool) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, "-m", "bench", "run", "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(int(traced)),
        ]
        if args.smoke:
            command.append("--smoke")
        if args.out is not None:
            command += ["--out", str(args.out)]
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode not in (0, 1) or not lines:
            print(f"bench: workload {name} exited {done.returncode}", file=sys.stderr)
            return done.returncode or 2
        result = json.loads(lines[-1])
        status = max(status, done.returncode)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


def _print_summary(workload: str, seed: int, traced: bool, result: dict) -> None:
    info = result["info"]
    if traced:
        print(f"{workload} (seed {seed}, traced): {info['run_passes']} run pass(es), "
              f"{info['replica_requests']} replica requests, {info['spans']} spans "
              f"-> {info['trace_file']}")
    else:
        print(f"{workload} (seed {seed}): {info['passes']} pass(es) x "
              f"{info['requests_per_pass']} requests = {info['latency_samples']} latency samples")
    for name, metric in result["metrics"].items():
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    if not traced:
        print(f"  fail_ratio {info['fail_ratio']:.6g}, verdict_mismatches "
              f"{info['verdict_mismatches']}, replay_confirmed {info['replay_confirmed']} "
              f"per pass, TS/BMC per pass {info['pass_totals'][0]}/{info['pass_totals'][1]}")
    if result["correct"]:
        print(f"  correct: {result['attempted']} requests checked")
    else:
        print(f"  NOT CORRECT ({result['failed']} failed requests):")
        for problem in info["problems"]:
            print(f"    {problem}")
    sys.stdout.flush()


def _append(path: Path, record: dict) -> None:
    records = json.loads(path.read_text()) if path.exists() else []
    records.append(record)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(records, indent=1))
    tmp.replace(path)


if __name__ == "__main__":
    sys.exit(main())
