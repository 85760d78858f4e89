"""Run the `dmbl` command line with every layer traced.

    python3 bench/launch.py SPANS.json verify --format json

Installs the wrappers of `spans` after importing `dmbl.cli` from the
checkout's ``src``, runs ``dmbl.cli.main`` on the remaining arguments, writes
the spans to SPANS.json and exits with the command's exit code.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import dmbl.cli  # noqa: E402
import spans  # noqa: E402

if __name__ == "__main__":
    tracer = spans.Tracer()
    tracer.op = 0
    tracer.install()
    try:
        code = dmbl.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        tracer.write(sys.argv[1])
    sys.exit(code)
