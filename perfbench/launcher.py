"""Run one qmspace command with the benchmark's trace wrappers installed.

    python3 perfbench/launcher.py SPANS_OUT <qmspace arguments...>

Does what ``python -m qmspace.cli`` does, records a span for the import
and one for the command, wraps qmspace's layers like an in-process traced
run, writes the spans to SPANS_OUT as JSON lines and exits with the
command's exit code.  ``src`` must be on PYTHONPATH.
"""

import sys

import tracing


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    try:
        with tracer.span("cli.import", "cli"):
            import qmspace.cli
        tracing.install(tracer, sys.modules["qmspace"])
        with tracer.span("cli.main", "cli"):
            return qmspace.cli.main(argv)
    finally:
        tracer.write(spans_out)


if __name__ == "__main__":
    sys.exit(main())
