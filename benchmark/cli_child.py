"""Run one qndlab CLI command with its layer calls traced.

    python3 benchmark/cli_child.py SPANS_JSON COMMAND [ARGS...]

Installs the tracer after the package is imported, so interpreter start-up
stays outside every span, then calls ``qndlab.cli.main`` and writes the
recorded spans to SPANS_JSON.
"""

import sys

from qndlab import cli
from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
