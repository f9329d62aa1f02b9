"""Run one pblab CLI command with the tracer installed, then write its spans and counts as JSON.

Usage: python3 perfbench/clitrace.py SPANS.json <pblab command and arguments>
The exit code is the command's. The traced ``ingest_cli`` round starts each
stage through this file instead of ``python3 -m pblab.cli``.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    from pblab import cli

    tracer = Tracer()
    with tracer.installed():
        code = cli.main(argv)
    with open(out, "w", encoding="utf-8") as f:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
