"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage::

    python perfbench/serve_traced.py SPANS.npz serve [serve options]

The traced serve-warm run starts the daemon through this launcher
instead of ``python -m repro serve``: it installs the same wrappers the
traced sweeps use plus the daemon-side ones, hands the remaining
arguments to ``repro.cli.main``, and writes every recorded span to
``SPANS.npz`` once the daemon has drained and exited.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402


def main(argv):
    from repro.cli import main as cli_main

    out = argv[0]
    rec = spans.Recorder()
    spans.install(rec)
    spans.install_serve(rec)
    rec.on = True
    try:
        return cli_main(argv[1:])
    finally:
        rec.on = False
        rec.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
