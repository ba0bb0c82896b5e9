"""Command-line entry point: run / verify / sweep subcommands.

Exit codes: 0 success, 1 config error, 2 data or stream error, 3 numerical
or statistics error. Failures append a structured error record to the output
when possible.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from dataclasses import replace

from .errors import (
    ConfigError,
    DataError,
    NumericalError,
    StatsError,
    StreamError,
)
from .runner import (
    RunConfig,
    config_from_dict,
    load_config,
    open_output,
    run,
    sweep,
    verify,
)

# desk-scale defaults used when verify/sweep run without a config file
STANDARD_PRESET = {
    "dataset": {"kind": "synthetic", "n": 5000, "dim": 16, "classes": 5,
                "separation": 4.0},
    "safe": {"K": 2.5, "T": 20, "lam": 1000.0, "epsilon": 5.0, "delta": 1e-5},
    "stream": {"mode": "random-subset", "rounds": 20, "per_round": 40},
    "retrain": {"epochs": 300, "lr": 1.0},
    "seed": 0,
}


def _exit_code(err: Exception) -> int:
    if isinstance(err, ConfigError):
        return 1
    if isinstance(err, (DataError, StreamError)):
        return 2
    if isinstance(err, (NumericalError, StatsError)):
        return 3
    raise err


def _load(args) -> RunConfig:
    if args.config:
        cfg = load_config(args.config)
    else:
        cfg = config_from_dict(dict(STANDARD_PRESET))
    if args.seed is not None:
        raw = cfg.to_dict()
        raw["seed"] = args.seed
        raw["output"] = cfg.output
        # substream seeds re-derive from the new master
        for section in ("safe", "retrain", "stream"):
            raw[section] = {k: v for k, v in raw[section].items() if k != "seed"}
        cfg = config_from_dict(raw)
    if args.output:
        cfg = replace(cfg, output=args.output)
    if args.oracle is not None:
        cfg = replace(cfg, oracle=args.oracle)
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="safestream",
        description="Streaming unlearning runs with retrain oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("run", "execute a configured unlearning run"),
        ("verify", "run the oracle-equivalence self checks"),
        ("sweep", "run the step-scale grid"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", help="JSON config path (defaults to the desk preset)")
        p.add_argument("--output", help="output path (JSONL)")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--oracle", dest="oracle", action="store_true",
                       default=None, help="enable per-round retrain oracles")
        p.add_argument("--no-oracle", dest="oracle", action="store_false",
                       help="disable per-round retrain oracles")

    args = parser.parse_args(argv)
    cfg = None
    try:
        cfg = _load(args)
        if args.command == "sweep":
            sweep(cfg, cfg.output or "sweep")
            return 0
        with open_output(cfg.output) if cfg.output else nullcontext(sys.stdout) as out:
            if args.command == "run":
                run(cfg, out)
                return 0
            return 0 if verify(cfg, out) else 3
    except Exception as err:  # noqa: BLE001 - mapped to exit codes below
        code = _exit_code(err)
        record = {"type": "error", "error": type(err).__name__,
                  "message": str(err), "exit_code": code}
        # the resolved config names the output; only a config that failed to
        # load leaves the command line's --output as the sole known target
        target = args.output if cfg is None else cfg.output
        if target:
            try:
                with open(target, "a") as f:
                    f.write(json.dumps(record, sort_keys=True) + "\n")
            except OSError:
                pass
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
