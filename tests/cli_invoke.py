"""`invoke(args)`: run `weinkit ARGS` in this process and capture it.

It imports nothing of weinkit but the command line, so a process that uses
it executes only the modules the command itself uses.
"""

import io
import os
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from weinkit.cli import main

Result = namedtuple("Result", "exit_code stdout stderr")


def invoke(args):
    """Run `weinkit ARGS`, with help text wrapped at 80 columns; return its
    exit code, stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr), \
            mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            main(args)
        except SystemExit as exc:
            code = exc.code
    return Result(code, stdout.getvalue(), stderr.getvalue())
