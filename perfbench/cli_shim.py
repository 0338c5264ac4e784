"""`python cli_shim.py SPANS_FILE ARGS...` runs `weinkit ARGS...` with every
layer traced, and appends the spans to SPANS_FILE when the command exits."""

import sys

from tracing import Tracer


def main():
    spans_path = sys.argv[1]
    sys.argv = ["weinkit"] + sys.argv[2:]
    from weinkit import cli
    tracer = Tracer()
    tracer.install()
    try:
        cli.main(prog_name="weinkit")
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    main()
