"""Run ``polycenter.cli.main`` under the benchmark's tracer.

Usage: ``python traced_cli.py SPANS_OUT ARGV_JSON``.  ``ARGV_JSON`` is one
argv list, run with the real stdout and exiting with its status, or a list
of argv lists, run one after another with their output discarded and
their exit statuses printed as one JSON list at the end.  The spans are
written to ``SPANS_OUT`` as JSON when all commands are done.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from tracing import Tracer


def main():
    spans_out, commands = sys.argv[1], json.loads(sys.argv[2])
    from polycenter import cli

    tracer = Tracer()
    tracer.install()
    if commands and isinstance(commands[0], str):
        tracer.op = 0
        code = cli.main(commands)
    else:
        code, codes = 0, []
        for k, argv in enumerate(commands):
            tracer.op = k
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                codes.append(cli.main(argv))
        print(json.dumps(codes))
    tracer.uninstall()
    sys.stdout.flush()
    Path(spans_out).write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main())
