"""Command-line front end: csvgd mvn|hyperelastic|sweep|condense-inspect."""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import (CheckpointError, CondenseError, DomainError,
                     NonFiniteGradientError, ShapeError)
from .experiments import (cmd_condense_inspect, cmd_hyperelastic, cmd_mvn,
                          cmd_sweep, default_config, load_config)

_PACKAGE_ERRORS = (ShapeError, DomainError, CondenseError,
                   NonFiniteGradientError, CheckpointError,
                   ValueError, OSError)


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", dest="out_dir")
    p.add_argument("--particles", dest="n_particles", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--lambda", dest="prior_lambda", type=float)
    p.add_argument("--beta", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--bandwidth-rule", dest="bandwidth_rule",
                   choices=("fixed", "median"))
    p.add_argument("--step-size", dest="step_size", type=float)
    p.add_argument("--iters", dest="max_iters", type=int)
    p.add_argument("--stages", dest="num_stages", type=int)
    p.add_argument("--schedule", choices=("fixed", "adaptive"))
    p.add_argument("--noise", type=float)
    p.add_argument("--adagrad", dest="adagrad", action="store_true", default=None)
    p.add_argument("--no-condense", dest="condense", action="store_false", default=None)


def _build_config(args: argparse.Namespace):
    cfg = default_config(args.command)
    if args.config:
        cfg = load_config(args.config)
        cfg.experiment = args.command
    overrides = {k: v for k, v in vars(args).items()
                 if v is not None and k in {f.name for f in dataclasses.fields(cfg)}}
    return dataclasses.replace(cfg, **overrides)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(
        prog="csvgd",
        description="Condensed Stein variational gradient descent experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (("mvn", "3-D multivariate-normal illustration"),
                      ("hyperelastic", "hyperelastic potential discovery"),
                      ("sweep", "lambda x gamma survey grid")):
        _add_run_flags(sub.add_parser(name, help=doc))
    ci = sub.add_parser("condense-inspect",
                        help="emit distances, weight samples, and graph dumps "
                             "from a checkpoint")
    ci.add_argument("checkpoint")
    ci.add_argument("--out", dest="out_dir", default="runs/inspect")

    args = parser.parse_args(argv)
    command_line = " ".join(["csvgd"] + argv)
    try:
        if args.command == "condense-inspect":
            return cmd_condense_inspect(args.checkpoint, args.out_dir)
        cfg = _build_config(args)
        runner = {"mvn": cmd_mvn, "hyperelastic": cmd_hyperelastic,
                  "sweep": cmd_sweep}[args.command]
        return runner(cfg, command_line)
    except _PACKAGE_ERRORS as exc:
        print(f"csvgd {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
