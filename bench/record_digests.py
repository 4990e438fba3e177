"""Record the byte-stability digests the benchmark checks outputs against.

    PYTHONPATH=src python3 bench/record_digests.py

Writes bench/digests.json: a digest of ``emit`` for every expression a
``build`` op can draw, and of stdout for every ``cli`` op expected to exit
0 or 1.  Run it only at a commit whose outputs are trusted; afterwards any
changed byte is a failed op.
"""

from __future__ import annotations

import json
import sys

import steinerlab as sl

import plan
import run
from answers import digest
from worker import evaluate


def main() -> int:
    build = {key: digest(sl.emit(evaluate(expr)).encode("utf-8"))
             for key, expr in sorted(plan.build_catalogue().items())}
    run.WORK.mkdir(exist_ok=True)
    cli_dir = run.WORK / "cli"
    run.write_cli_inputs(cli_dir)
    env = run.child_env()
    cli = {}
    for key, (argv, stdin) in sorted(plan.cli_catalogue().items()):
        _, code, stdout = run.cli_call({"argv": argv, "stdin": stdin}, env, cli_dir)
        if code not in (0, 1):
            print(f"{key}: exit {code}", file=sys.stderr)
            return 1
        cli[key] = digest(stdout)
    path = run.BENCH / "digests.json"
    path.write_text(json.dumps({"build": build, "cli": cli}, indent=1, sort_keys=True) + "\n")
    print(f"{len(build)} build and {len(cli)} cli digests written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
