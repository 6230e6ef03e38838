"""One traced ``longplan`` CLI invocation.

usage: python3 -X importtime perfbench/cli_traced.py SPANS_JSON ARGS...

Installs the tracer, runs ``longplan.cli.main(ARGS)`` exactly as the
console script would, writes the spans to SPANS_JSON and exits with the
CLI's status.  ``-X importtime`` supplies the import breakdown on stderr.
"""

import sys

# First, so that -X importtime charges longplan with everything it imports.
import longplan.cli

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return longplan.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
