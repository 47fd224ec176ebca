"""Command-line front end: each subcommand builds an experiment config (from
a JSON file and/or flags), runs it through the harness, and emits CSV/JSON.

Exit codes: 0 success, 2 config/schema error, 3 analytic-bound violation
(only when --check-bounds is set).
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import ConfigError, emit, run, sweep

# Subcommand -> (default experiment kind, default bound evaluator); None
# leaves the field to the config.
_SUBCOMMANDS = {
    "rd": ("bound", "rd"),
    "capacity": ("bound", "capacity"),
    "expansion": ("bound", "expansion"),
    "sim-vlf": ("stop_feedback", None),
    "sim-vlft": ("vlft", None),
    "sim-jscc": ("jscc_excess", None),
    "sim-sk": ("sk", None),
    "sim-energy": ("energy_vl", None),
    "bound": ("bound", None),
    "sweep": (None, None),
}


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--seed", type=int, help="master seed")
    sub.add_argument("--trials", type=int, help="number of Monte-Carlo trials")
    sub.add_argument("--units", choices=("bits", "nats"), default="nats")
    sub.add_argument("--out", help="output path (stdout if omitted)")
    sub.add_argument("--format", choices=("csv", "json"), default="json")
    sub.add_argument("--workers", type=int, default=1)
    sub.add_argument("--check-bounds", action="store_true",
                     help="exit 3 if any analytic bound is violated")


def build_parser():
    p = argparse.ArgumentParser(prog="jsccsim")
    subs = p.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        sub = subs.add_parser(name)
        _add_common(sub)
        if name == "sweep":
            sub.add_argument("--grid", help="JSON object: field -> list of values")
    return p


def _load_config(args) -> dict:
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
    for key, value in zip(("kind", "which"), _SUBCOMMANDS[args.command]):
        if value is not None:
            cfg.setdefault(key, value)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.trials is not None:
        cfg["trials"] = args.trials
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "sweep":
            grid = json.loads(args.grid) if args.grid else cfg.pop("grid", {})
            records = sweep(cfg, grid, workers=args.workers)
        else:
            records = [run(cfg, workers=args.workers)]
        text = emit(records, fmt=args.format, units=args.units, path=args.out)
        if args.out is None:
            sys.stdout.write(text + ("\n" if not text.endswith("\n") else ""))
    except (ConfigError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.check_bounds and any(r.violations for r in records):
        for r in records:
            for v in r.violations:
                print(f"bound violation: {v}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
