"""The demo scripts print deterministic text: pin each script's stdout by
its sha256, so a change to what a demo shows is a reviewed change here."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weinkit

SRC = Path(weinkit.__file__).resolve().parent
DEMOS = Path(__file__).resolve().parent.parent / "demos"

STDOUT_SHA256 = {
    "chords_and_words.py":
        "3b3670d5290207e196af59da98081d8858ceada8964c014b28443fdacd8880fb",
    "convexity_certificates.py":
        "f19a65e3a351d48133bf6b2d746b58156b2d374c7434aa99b4979f52432d38bd",
    "handle_calculus.py":
        "4de184d922586c8686dbffd89a551ee77a4665705d6645196bee2d78f0d144ea",
    "scaling_profile.py":
        "8679327de9583ef4b59c1394975976bf6a554d648e9a0bd8c8aff5ef7eec8ace",
    "vanishing_formulas.py":
        "1d56cf54b74baf094ca17a6231fb1f6e51070f739a791ed129a83122feffc793",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("script", sorted(STDOUT_SHA256))
def test_demo_output(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(DEMOS / script)], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == \
        STDOUT_SHA256[script]
