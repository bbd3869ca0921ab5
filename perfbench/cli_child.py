"""One traced CLI request: `python3 perfbench/cli_child.py <cli arguments>`.

Runs `reactlin.cli.main` in-process with the tracer installed, writes the
CLI's output unchanged to stdout and, after a marker line, its spans as
JSON to stderr.  An oracle span gets value True when the CLI reported
its rho_max: it was not a cross-check run inside rho_max_closed and its
value is the report's.
"""

import io
import json
import sys

from tracing import NAME, VALUE, Tracer, has_ancestor

MARK = "PERFBENCH-SPANS "


def main(argv: list[str]) -> int:
    tracer = Tracer()
    with tracer.span("import.reactlin_cli"):
        import reactlin.cli
    tracer.install()
    real_stdout, sys.stdout = sys.stdout, io.StringIO()
    try:
        with tracer.span("cli.main"):
            code = reactlin.cli.main(argv)
    finally:
        out, sys.stdout = sys.stdout.getvalue(), real_stdout
        tracer.uninstall()
    sys.stdout.write(out)
    reported = None
    if argv and argv[0] == "analyze" and code == 0:
        reported = json.loads(out).get("amplification", {}).get("rho_max")
    for i, rec in enumerate(tracer.spans):
        if rec[NAME] == "amplification.rho_max_numeric":
            rec[VALUE] = (rec[VALUE] is not None and rec[VALUE] == reported
                          and not has_ancestor(tracer.spans, i, "amplification.rho_max_closed"))
    sys.stderr.write("\n" + MARK + json.dumps(tracer.spans) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
