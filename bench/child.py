"""Bootstrap for a traced `bct` call.

Usage: python3 bench/child.py SPANS_FILE BCT_ARGS...

Does what the `bct` console script does (`bicomplex.cli:entry`), with
the same wrappers as an in-process traced run installed first, and
writes its spans to SPANS_FILE when the call ends.
"""

import sys

import bicomplex.cli
from spans import Tracer


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    sys.argv[0] = "bct"
    try:
        return bicomplex.cli.main(argv)
    finally:
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
