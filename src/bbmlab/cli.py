"""Command-line front end.

One subcommand per public operation, plus `run` (experiment config file),
`accept` (the acceptance suite) and `report`.  Stochastic subcommands
require --seed and deterministic ones refuse it.  Exit codes: 0 pass,
1 validation or output error, 2 numerical failure, 3 acceptance failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import operations
from .errors import ConfigurationError, DomainError, NumericalFailure

DEFAULT_ROOT_ENV = "BBMLAB_OUT"


def _add_operation_parsers(sub):
    for name, op in operations.REGISTRY.items():
        p = sub.add_parser(name, help=op.anchor)
        # every value stays text here: Operation.bind parses it and fills
        # in the registry default, so a bad, missing or needless value (a
        # seed for a deterministic operation included) exits with code 1
        # rather than argparse's 2
        for param, spec in sorted(op.parameters.items()):
            shown = "required" if spec.default is operations.REQUIRED else \
                f"default: {spec.default}"
            p.add_argument(f"--{param.replace('_', '-')}", dest=param, default=None, help=shown)
        if not op.stochastic:
            p.add_argument("--seed", default=None, help="not taken: deterministic")
        p.add_argument("--out", default=None, help="output directory")
        p.set_defaults(_operation=name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bbmlab",
                                     description="angle-inhomogeneous branching "
                                                 "diffusion laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_operation_parsers(sub)

    p_run = sub.add_parser("run", help="execute an experiment config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--force", action="store_true")

    p_acc = sub.add_parser("accept", help="run the acceptance suite")
    p_acc.add_argument("--only", default=None,
                       help="comma-separated criterion numbers")

    p_rep = sub.add_parser("report", help="summarize a run directory")
    p_rep.add_argument("run_dir")

    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            from .harness import run_experiment, spec_from_config

            try:
                text = Path(args.config).read_text()
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigurationError(f"cannot read config {args.config}: {exc}") from None
            spec = spec_from_config(text)
            record = run_experiment(spec, root=args.out or None, force=args.force)
            print(f"{spec.name}: {record.status} ({len(record.digests)} files, "
                  f"spec {record.spec_hash})")
            return 0

        if args.command == "accept":
            from .acceptance import run_suite

            numbers = None
            if args.only:
                try:
                    numbers = {int(v) for v in args.only.split(",")}
                except ValueError:
                    raise ConfigurationError(
                        f"--only takes criterion numbers, got {args.only!r}") from None
            results = run_suite(numbers)
            for res in results:
                print(res.line())
            n_fail = sum(1 for r in results if not r.passed)
            print(f"{len(results) - n_fail}/{len(results)} criteria passed")
            return 0 if n_fail == 0 else 3

        if args.command == "report":
            from .harness import report

            text, code = report(args.run_dir)
            print(text, end="")
            return code

        # a registry operation
        op = operations.REGISTRY[args._operation]
        out = Path(args.out or os.environ.get(DEFAULT_ROOT_ENV, "runs")) / op.name
        files = op.execute({key: getattr(args, key) for key in [*op.parameters, "seed"]
                            if getattr(args, key) is not None}, out)
        for f in files:
            print(f)
        return 0

    except (ConfigurationError, DomainError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output directory or file that cannot be written
        print(f"output error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
