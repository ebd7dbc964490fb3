"""Command-line entry point.

Subcommands: generate (synthetic dataset to CSVs), analyze (full pipeline),
report (analyst reports only, no training).

Exit codes: 0 success, 1 usage/config error, 2 data validation error,
3 analysis error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import AnalysisError, DataError, UsageError
from .ingest import read_json, write_dataset, write_json
from .pipeline import load_config, run_pipeline
from .synthfab import generate, scenario_from_dict, scenario_to_dict

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ANALYSIS = 3


def _cmd_generate(args: argparse.Namespace) -> int:
    scenario = scenario_from_dict(read_json(Path(args.scenario), "scenario"))
    dataset = generate(scenario)
    out = Path(args.out)
    written = write_dataset(dataset, out)
    echo = out / "scenario.json"
    write_json(scenario_to_dict(scenario), echo)
    for level in sorted(written):
        rows = len(dataset.tables[level])
        print(f"wrote {written[level]} ({rows} rows)")
    print(f"wrote {echo}")
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    result = run_pipeline(load_config(args.config))
    for name, target in result.targets.items():
        labeled = target.labeled
        print(
            f"target {name}: threshold={target.threshold} "
            f"rows={len(labeled) if labeled else 0} rules={len(target.rules)}"
        )
    print(f"artifacts in {result.output_dir}")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    result = run_pipeline(load_config(args.config), report_only=True)
    for name, target in result.targets.items():
        print(f"target {name}: threshold preview={target.threshold}")
    print(f"reports in {result.output_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yieldtree",
        description="Rejection-cause rule mining for multi-granularity fab data.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("generate", help="generate a synthetic dataset as per-level CSVs")
    gen.add_argument("--scenario", required=True, help="scenario JSON file")
    gen.add_argument("--out", required=True, help="output directory for CSVs")
    gen.set_defaults(run=_cmd_generate)

    analyze = commands.add_parser("analyze", help="run the full pipeline from a config file")
    analyze.add_argument("--config", required=True, help="pipeline config JSON file")
    analyze.set_defaults(run=_cmd_analyze)

    rep = commands.add_parser("report", help="write analyst reports only; no training")
    rep.add_argument("--config", required=True, help="pipeline config JSON file")
    rep.set_defaults(run=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad arguments; 2 is for data errors here
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except AnalysisError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS


if __name__ == "__main__":
    sys.exit(main())
