"""Command-line entry point.

Exit codes: 0 success, 2 configuration error, 3 a failed oracle check (from
``oracle-check`` or from ``run`` of an oracle-check config), 4 run finished
with error rows (written as ``nan`` rows).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace

from d2dgames.config import ConfigError, ExperimentConfig, dump_config, load_config
from d2dgames.harness import run_experiment


@functools.cache  # built on the first main call, then reused by every later one
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="d2dgames",
        description="Game-theoretic D2D underlay resource-allocation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the experiment described by a config file")
    run_p.add_argument("--config", required=True, help="path to a key = value config file")
    run_p.add_argument("--seed", type=int, default=None, help="override master_seed")
    run_p.add_argument("--out", default=None, help="override output directory")

    sub.add_parser("oracle-check", help="cross-validate engines against oracles")

    sub.add_parser("print-defaults", help="print the full default configuration")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "print-defaults":
        print(dump_config(ExperimentConfig()), end="")
        return 0

    if args.command == "oracle-check":
        config = ExperimentConfig(experiment="oracle-check")
    else:
        try:
            config = load_config(args.config)
            if args.seed is not None:
                config = replace(config, master_seed=args.seed)
            if args.out is not None:
                config = replace(config, output_path=args.out)
            config = config.validate()
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2

    summary = run_experiment(config)
    print(f"experiment: {summary.experiment}")
    print(f"rows: {len(summary.rows)}  wall clock: {summary.wall_clock_s:.2f} s")
    groups, paired = summary.groups, summary.paired
    if summary.experiment == "content-distribution" and groups:
        last_round = max(sweep for sweep, _ in groups)
        groups = {key: st for key, st in groups.items() if key[0] == last_round}
        paired = {key: st for key, st in paired.items() if key[0] == last_round}
    for key in sorted(groups):
        st = groups[key]
        print(f"  {key}: mean={st.mean:.4f} stddev={st.stddev:.4f} n={st.count}")
    for (sweep, a, b), st in paired.items():
        print(
            f"  paired {sweep} {a}-{b}: mean_diff={st.mean_diff:.4f} "
            f"wins={st.wins_a}:{st.wins_b} ties={st.ties} n={st.count}"
        )
    if summary.errors:
        print(f"errors ({len(summary.errors)}):")
        for err in summary.errors:
            print(f"  {err}")
    if summary.checks is not None:
        print(json.dumps(summary.checks, indent=2, sort_keys=True))
    if config.output_path:
        print(f"outputs written to {config.output_path}")
    if summary.checks is not None and not summary.checks["all_passed"]:
        return 3
    return 4 if summary.errors else 0


if __name__ == "__main__":
    sys.exit(main())
