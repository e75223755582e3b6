"""``python -m repro.service`` — run the HTTP front from the command line."""

from __future__ import annotations

import argparse
import sys

from ..cli import commands
from ..cli.parsing import add_service_arguments


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve mining queries over HTTP/JSON.",
    )
    add_service_arguments(parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    return commands.cmd_serve(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
