"""Run one h2cost CLI command with the tracer installed, then dump its spans.

    PYTHONPATH=src python3 h2bench/traced_cli.py SPANS.tsv lcoh --format json

It exits as ``python -m h2cost.cli`` would. The spans of the whole command
are written to SPANS.tsv as operation 0, also when the command fails.
"""

import sys

import spans
from h2cost import cli


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        return cli.main(argv)
    finally:
        tracer.dump(path)


if __name__ == "__main__":
    sys.exit(main())
