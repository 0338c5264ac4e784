"""Package-wide properties: postconditions survive `python -O`, the import
pulls in no dependency beyond click, and numpy loads only for the float
grids of scaling-verify and the examples corpus."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import weinkit

SRC = Path(weinkit.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def _python(args, cwd=None):
    """Run the interpreter on ARGS with src/ and tests/ importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), str(TESTS), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=60)


def test_no_bare_asserts_in_src():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
    assert not found, f"bare assert vanishes under python -O: {found}"


def test_import_leaves_out_sympy_scipy_and_numpy():
    code = ("import sys, weinkit; "
            "print(sorted({'sympy', 'scipy', 'numpy'} & set(sys.modules)))")
    out = _python(["-c", code])
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_cli_process_imports_numpy_only_for_the_grid():
    cli = ["-X", "importtime", "-m", "weinkit.cli"]
    out = _python(cli + ["chord-degree", "--down", "2", "--up", "0",
                         "--ind", "0"])
    assert out.returncode == 0, out.stderr
    assert not [line for line in out.stderr.splitlines() if "numpy" in line]
    out = _python(cli + ["scaling-verify", "--grid", "301"])
    assert out.returncode == 0, out.stderr
    assert any("numpy" in line for line in out.stderr.splitlines())


def test_every_other_command_leaves_out_numpy(tmp_path):
    # every golden run but the two float-grid commands, in one process
    code = ("import sys\n"
            "from test_cli_golden import RUNS, transcript, write_fixtures\n"
            "write_fixtures('.')\n"
            "for args in RUNS:\n"
            "    if args[0] not in ('scaling-verify', 'examples'):\n"
            "        transcript(args)\n"
            "        if 'numpy' in sys.modules:\n"
            "            print(' '.join(args))\n"
            "            break\n")
    out = _python(["-c", code], cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "", f"loaded numpy: {out.stdout}"
