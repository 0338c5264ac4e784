"""Package-wide properties: postconditions survive `python -O`, and the
import pulls in no dependency beyond numpy and click."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import weinkit

SRC = Path(weinkit.__file__).resolve().parent


def test_no_bare_asserts_in_src():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
    assert not found, f"bare assert vanishes under python -O: {found}"


def test_import_leaves_out_sympy_and_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    code = ("import sys, weinkit; "
            "print(sorted({'sympy', 'scipy'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60,
                         check=True)
    assert out.stdout.strip() == "[]"
