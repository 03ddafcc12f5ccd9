"""Launch ``repro serve --stdio`` from this checkout, optionally traced.

    python perf/daemon.py --cache-root DIR [--trace-out FILE] [serve args]

Runs ``repro.cli.main(["serve", "--stdio", ...])``.  With ``--trace-out``
the layer wrappers of ``perf/tracing.py`` are installed first, and the
spans are written to FILE once the daemon has drained and stopped.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", metavar="FILE", default=None)
    args, serve_args = parser.parse_known_args(argv)
    recorder = None
    if args.trace_out is not None:
        from tracing import Recorder, install

        recorder = Recorder(os.getpid())
        install(recorder)
    from repro.cli import main as repro_main

    code = repro_main(["serve", "--stdio", *serve_args])
    if recorder is not None:
        recorder.dump(args.trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
