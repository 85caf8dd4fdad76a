"""Command line front end: ``sim --config <path> [--mode] [--out] [--override-dt]``."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import MODES, parse_config
from .errors import ConfigError
from .runner import run


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sim",
        description="Five-level condensate simulator: full, reduced two-flavor, "
        "comparison and out-coupling runs.",
    )
    p.add_argument("--config", required=True, help="path to a key = value config file")
    p.add_argument("--mode", choices=MODES, help="override run.mode from the config")
    p.add_argument("--out", help="override run.out_dir from the config")
    p.add_argument(
        "--override-dt",
        action="store_true",
        help="run even if run.dt exceeds the advisory stability bound",
    )
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    path = Path(args.config)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"sim: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        print(f"sim: {path}: {exc}", file=sys.stderr)
        return 2

    if args.mode:
        cfg = replace(cfg, run=replace(cfg.run, mode=args.mode))
    out_dir = args.out if args.out else None

    report = run(cfg, out_dir=out_dir, override_dt=args.override_dt)
    for line in report.lines():
        print(line)
    if report.exit_code:
        print(f"sim: exit {report.exit_code}", file=sys.stderr)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
