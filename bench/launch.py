"""Run one gdneg command with every layer traced, and write its spans.

    python3 bench/launch.py SPANS_FILE COMMAND [ARGS...]

Installs the span wrappers on gdneg, calls `gdneg.io_cli.main(argv)` and
exits with its return code, as `python -m gdneg.io_cli` would. The spans are
written to SPANS_FILE even when the command raises.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402


def main():
    spans_file, argv = sys.argv[1], sys.argv[2:]
    import gdneg.io_cli

    t = tracer.Tracer()
    tracer.install(t)
    try:
        return gdneg.io_cli.main(argv)
    finally:
        tracer.save(spans_file, t.arrays(), t.names, t.counters)


if __name__ == "__main__":
    sys.exit(main())
