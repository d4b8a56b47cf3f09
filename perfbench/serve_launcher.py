"""Start the ``swsample`` CLI from this checkout, optionally with layer tracing.

Usage::

    python3 perfbench/serve_launcher.py [--trace-out PATH] serve [serve options]

With ``--trace-out`` the same span wrappers as the benchmark's traced run
(:func:`tracing.install`) are installed before the CLI entry point runs, and
the recorded spans are written to ``PATH`` when the daemon returns after
SIGTERM.  Without it the launcher only calls the entry point.
"""

from __future__ import annotations

import os
import sys
from typing import List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import import_repro  # noqa: E402


def main(argv: List[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    import_repro()
    from repro.cli import main as cli_main

    if trace_out is None:
        return cli_main(argv)
    from tracing import Tracer, install

    tracer = Tracer()
    install(tracer)
    try:
        return cli_main(argv)
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
