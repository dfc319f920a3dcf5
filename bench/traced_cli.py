"""Run one dunklkg CLI call in this fresh interpreter under the span tracer.

Usage: python3 traced_cli.py SPANS_OUT OP_ID CLI_ARGS...

The spans are written to SPANS_OUT as JSON when the call ends; the exit
code is the CLI's own.  The source tree must already be on PYTHONPATH.
"""

import sys

from tracer import CLI_SPAN, Tracer


def main() -> int:
    spans_out, op_id, *cli_args = sys.argv[1:]
    from dunklkg import cli

    tracer = Tracer()
    tracer.op_id = int(op_id)
    tracer.install()
    code = 0
    try:
        with tracer.span(CLI_SPAN):
            cli.cli.main(cli_args, prog_name="dunklkg")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
        tracer.write(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
