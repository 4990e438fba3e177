"""Run one steinerlab CLI call with spans recorded.

    PYTHONPATH=src python3 bench/clitrace.py SPANS_OUT ARG...

behaves like ``steinerlab ARG...`` (same stdout, stderr and exit code) and
also writes the call's spans to SPANS_OUT as JSON.
"""

from __future__ import annotations

import json
import sys

from spans import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from steinerlab.cli import main as cli_main

    tracer.active = True
    try:
        return cli_main(argv)
    finally:
        tracer.active = False
        with open(out, "w") as fh:
            json.dump(tracer.raw(), fh)


if __name__ == "__main__":
    sys.exit(main())
