"""Run one posenergy CLI invocation with every layer entry point traced.

Usage (normally started by run.py)::

    python bench/traced_cli.py SPANS_JSON chart --format csv --points 20000

Behaves like ``python -m posenergy.cli ARGS``, then writes the recorded
spans and counts to SPANS_JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import tracer


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    from posenergy import cli

    trace = tracer.Tracer()
    trace.install()
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        spans_path.write_text(json.dumps({"spans": trace.spans, "counts": trace.counts}))


if __name__ == "__main__":
    sys.exit(main())
