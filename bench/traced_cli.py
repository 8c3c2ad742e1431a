"""Run the ``collective-recourse`` CLI with every layer traced.

Usage: python3 traced_cli.py SPANS_OUT CLI_ARG...

Times the import of the CLI module (which pulls in numpy and the whole
package), wraps the library's public functions, runs ``cli_main`` on the
remaining arguments, writes the recorded spans to SPANS_OUT once at the
end and exits with the CLI's exit code.
"""

import sys
from time import perf_counter

if __name__ == "__main__":
    spans_out, cli_args = sys.argv[1], sys.argv[2:]
    import_start = perf_counter()
    import collective_recourse.cli as cli

    import_end = perf_counter()

    from tracer import Tracer, save_spans

    tracer = Tracer()
    tracer.add_span("cli.import", import_start, import_end)
    tracer.install()
    try:
        code = cli.cli_main(cli_args)
    finally:
        save_spans(spans_out, tracer.arrays())
    sys.exit(code)
