"""Run one oamsim CLI command in this fresh process with the tracer installed.

    python perfbench/shim.py STATS_PATH COMMAND [ARGS...]

Behaves like the ``oamsim`` console script (same stdout, same exit code) and
writes the tracer summary of the command to STATS_PATH as JSON.
"""

import json
import sys

from oamsim.cli import main

import tracer


def run(stats_path, argv):
    t = tracer.Tracer().install()
    try:
        with t.span():
            rc = main(argv)
    finally:
        t.uninstall()
    with open(stats_path, "w") as f:
        json.dump(t.summary(), f)
    return rc


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
