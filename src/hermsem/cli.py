"""Batch experiment runner.

    hermsem run --config cfg.json [--output-dir DIR] [--seed N]

Flag overrides take precedence over config values.  Exit codes: 0 on
success / probe PASS, 1 on probe FAIL or I/O failure, 2 on configuration
errors.  Data CSVs are byte-deterministic in (config, seed); the wall
clock appears only in the summary's metadata block.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .config import ConfigError, ExperimentConfig
from .csvio import emit_csv
from .experiments import run_experiment

__all__ = ["main", "run"]


def run(config_path: str, output_dir: str | None = None, seed: int | None = None) -> int:
    try:
        cfg = ExperimentConfig.from_file(config_path)
        if output_dir is not None:
            cfg.output_dir = output_dir
        if seed is not None:
            cfg.seed = int(seed)
        cfg.validate()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        tables, summary, passed = run_experiment(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
        with open(os.path.join(cfg.output_dir, "config_resolved.json"), "w") as fh:
            json.dump(cfg.resolved(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        for name, table in tables.items():
            emit_csv(table, os.path.join(cfg.output_dir, name))
        with open(os.path.join(cfg.output_dir, "summary.txt"), "w") as fh:
            fh.write(f"# experiment: {cfg.experiment}\n")
            fh.write(f"# finished: {time.strftime('%Y-%m-%dT%H:%M:%S%z')}\n")
            for line in summary:
                fh.write(line + "\n")
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1

    for line in summary:
        print(line)
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hermsem", description="distribution-valued semimartingale experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the config file")
    p_run.add_argument("--output-dir", default=None, help="override output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the seed")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, args.output_dir, args.seed)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
