"""The ``repro`` argument parser: every subcommand keeps its flags,
defaults and choices, however the shared flags are declared, and one
parser serves every call in a process."""

import argparse
import os
from pathlib import Path

import pytest

from repro.cli import build_parser

ON_OFF = ("on", "off")
SOLVERS = ("cdcl", "dpll")
START_METHODS = ("fork", "spawn")
JOBS = os.cpu_count() or 1

#: Per subcommand: option strings (``()`` for a positional) → (dest,
#: default, choices, type).
EXPECTED = {
    "verify": {
        (): ("paths", None, None, Path),
        ("--detailed",): ("detailed", False, None, None),
        ("--stats",): ("stats", False, None, None),
        ("--solver",): ("solver", "cdcl", SOLVERS, None),
        ("--sat-cache",): ("sat_cache", "off", ON_OFF, None),
        ("--replay",): ("replay", "off", ON_OFF, None),
        ("--trace",): ("trace", None, None, Path),
    },
    "audit": {
        (): ("paths", None, None, Path),
        ("--jobs", "-j"): ("jobs", JOBS, None, int),
        ("--timeout",): ("timeout", None, None, "_positive_float"),
        ("--cache-dir",): ("cache_dir", None, None, Path),
        ("--no-cache",): ("no_cache", False, None, None),
        ("--jsonl",): ("jsonl", None, None, Path),
        ("--detailed",): ("detailed", False, None, None),
        ("--quiet", "-q"): ("quiet", False, None, None),
        ("--trace",): ("trace", None, None, Path),
        ("--metrics",): ("metrics", None, None, Path),
        ("--solver",): ("solver", "cdcl", SOLVERS, None),
        ("--sat-cache",): ("sat_cache", "off", ON_OFF, None),
        ("--shard",): ("shard", None, None, None),
        ("--start-method",): ("start_method", None, START_METHODS, None),
        ("--replay",): ("replay", "off", ON_OFF, None),
    },
    "watch": {
        (): ("root", None, None, Path),
        ("--interval",): ("interval", 2.0, None, "_positive_float"),
        ("--debounce",): ("debounce", 0.5, None, float),
        ("--jobs", "-j"): ("jobs", JOBS, None, int),
        ("--timeout",): ("timeout", None, None, "_positive_float"),
        ("--cache-dir",): ("cache_dir", None, None, Path),
        ("--no-cache",): ("no_cache", False, None, None),
        ("--out-dir",): ("out_dir", None, None, Path),
        ("--serve-metrics",): ("serve_metrics", None, None, None),
        ("--once",): ("once", False, None, None),
        ("--quiet", "-q"): ("quiet", False, None, None),
        ("--solver",): ("solver", "cdcl", SOLVERS, None),
        ("--sat-cache",): ("sat_cache", "off", ON_OFF, None),
        ("--start-method",): ("start_method", None, START_METHODS, None),
        ("--replay",): ("replay", "off", ON_OFF, None),
    },
    "report": {
        (): ("path", None, None, Path),
        ("--diff",): ("diff", None, None, Path),
        ("--top",): ("top", 10, None, int),
        ("--json",): ("json", False, None, None),
        ("--html",): ("html", None, None, Path),
    },
    "patch": {
        (): ("path", None, None, Path),
        ("-o", "--output"): ("output", None, None, Path),
        ("--strategy",): ("strategy", "bmc", ("bmc", "ts"), None),
    },
    "html": {
        (): ("path", None, None, Path),
        ("-o", "--output"): ("output", None, None, Path),
    },
    "figure10": {
        ("--jobs", "-j"): ("jobs", 1, None, int),
    },
}


def subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return dict(action.choices)


def flags(parser: argparse.ArgumentParser) -> dict:
    table = {}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        kind = action.type
        if callable(kind) and getattr(kind, "__name__", "").startswith("_"):
            kind = kind.__name__
        table[tuple(sorted(action.option_strings))] = (
            action.dest, action.default, action.choices, kind,
        )
    return table


def test_every_subcommand_is_covered():
    assert set(subparsers()) == set(EXPECTED)


@pytest.mark.parametrize("command", sorted(EXPECTED))
def test_flags_defaults_and_choices(command):
    expected = {tuple(sorted(k)): v for k, v in EXPECTED[command].items()}
    assert flags(subparsers()[command]) == expected


def test_top_level_prelude_flag():
    parser = build_parser()
    args = parser.parse_args(["--prelude", "p.txt", "figure10"])
    assert args.prelude == Path("p.txt") and args.jobs == 1


def test_one_parser_per_process_and_no_state_between_parses():
    parser = build_parser()
    assert build_parser() is parser
    first = parser.parse_args(["audit", "a", "--jobs", "3", "--replay", "on"])
    second = parser.parse_args(["audit", "b"])
    assert (first.jobs, first.replay) == (3, "on")
    assert (second.jobs, second.replay, second.paths) == (JOBS, "off", [Path("b")])
