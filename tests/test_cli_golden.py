"""Golden CLI transcripts: exit code, stdout and stderr of fixed invocations.

Every command runs on model fixtures, error paths included, as JSON and
with --table; --help of every command and group is recorded too.  The
expected transcripts live in data/cli_golden.json.  After an intended
change of output, regenerate them with

    PYTHONPATH=src python tests/test_cli_golden.py

which prints the keys whose transcript changed, and review the diff of
the data file.
"""

import hashlib
import json
import os
import sys
from fractions import Fraction

import pytest

from cli_invoke import invoke
from weinkit.cli import COMMANDS as REGISTERED
from weinkit.graded import GradedGroup
from weinkit.handles import HandlePresentation
from weinkit.models import (
    degree_zero_orbit_fixture,
    empty_certificate,
    middle_rank_family,
    mixed_sign_spectrum,
    sample_certificate,
    t_star_sphere,
    two_letter_table,
)
from weinkit.surgery import OrbitSpectrum

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "cli_golden.json")

# Output longer than this is stored as its sha256 and length.
VERBATIM_LIMIT = 1200


def _loops(dims, base=None, horizon=4):
    return {"schema": 1, "dims": dims, "base": base or {"0": 1},
            "horizon": horizon}


FIXTURES = {
    "t3.json": t_star_sphere(3).to_json(),
    "t4.json": t_star_sphere(4).to_json(),
    "mrf.json": middle_rank_family(3, 2).to_json(),
    "n1.json": HandlePresentation(1, [0, 1]).to_json(),
    "z2.json": HandlePresentation(3, [0, 1, 2],
                                  boundaries={2: [[2]]}).to_json(),
    "p99.json": {"schema": 99, "n": 3, "handles": []},
    "g03.json": GradedGroup.free({0: 1, 3: 1}).to_json(),
    "g032.json": GradedGroup.free({0: 1, 3: 2}).to_json(),
    "g07.json": GradedGroup.free({0: 1, 7: 1}).to_json(),
    "g02.json": GradedGroup.free({0: 1, 2: 1}).to_json(),
    "gtors.json": GradedGroup.from_dict(
        {0: (1, ()), 2: (0, (2, 4)), 3: (1, (3,))}).to_json(),
    "gkey.json": {"schema": 1, "graded_group": {"x": {"rank": 1}}},
    "gnone.json": {"schema": 1},
    "lm.json": _loops({"0": 1, "2": 12}),
    "ln.json": _loops({"0": 1, "2": 2}),
    "lneg.json": _loops({"0": 1, "2": -1}),
    "lbase.json": _loops({"1": 1}, {"0": 1}),
    "chords.json": two_letter_table().to_json(),
    "mixed.json": mixed_sign_spectrum().to_json(),
    "orbits.json": OrbitSpectrum(3, (), Fraction(10)).to_json(),
    "cert1.json": sample_certificate(3, 1).to_json(),
    "cert3.json": sample_certificate(3, 3).to_json(),
    "cert4.json": sample_certificate(3, 4).to_json(),
    "deg0.json": degree_zero_orbit_fixture().to_json(),
    "empty.json": empty_certificate().to_json(),
    "list.json": [1, 2],
}

RAW_FIXTURES = {"bad.json": "{not json"}

RUNS = [
    ["homology", "t3.json"],
    ["homology", "t3.json", "--coeff", "Q"],
    ["homology", "t3.json", "--coeff", "F2"],
    ["homology", "z2.json"],
    ["homology", "z2.json", "--coeff", "F2"],
    ["homology", "bad.json"],
    ["homology", "p99.json"],
    ["homology", "list.json"],
    ["homology", "nope.json"],
    ["homology", "t3.json", "--coeff", "R"],
    ["boundary", "t3.json"],
    ["boundary", "mrf.json"],
    ["boundary", "n1.json"],
    ["boundary", "bad.json"],
    ["rank-form", "t4.json"],
    ["rank-form", "t3.json"],
    ["rank-form", "n1.json"],
    ["rank-form", "nope.json"],
    ["omega-check", "g03.json", "--n", "5", "--closed",
     "--simply-connected", "--stably-parallelizable"],
    ["omega-check", "g03.json", "--n", "5"],
    ["omega-check", "g032.json", "--n", "6", "--closed",
     "--simply-connected", "--stably-parallelizable"],
    ["omega-check", "gkey.json", "--n", "5"],
    ["omega-check", "g03.json"],
    ["sh-plus", "g032.json", "--n", "3"],
    ["sh-plus", "gtors.json", "--n", "3", "--no-weinstein"],
    ["sh-plus", "g07.json", "--n", "3"],
    ["sh-plus", "gnone.json", "--n", "3"],
    ["wh-plus", "g02.json", "--n", "3"],
    ["wh-plus", "gtors.json", "--n", "4"],
    ["wh-plus", "g07.json", "--n", "3"],
    ["distinguish", "g03.json", "g032.json", "--n", "3"],
    ["distinguish", "g03.json", "g03.json", "--n", "3"],
    ["distinguish", "g03.json", "nope.json", "--n", "3"],
    ["cem-bound", "--k", "5", "--dim", "2"],
    ["cem-bound", "--k", "2", "--dim", "2"],
    ["cem-bound", "--k", "0", "--dim", "2"],
    ["cem-bound", "--k", "x", "--dim", "2"],
    ["loops-distinguish", "lm.json", "ln.json", "g03.json", "--n", "4"],
    ["loops-distinguish", "lm.json", "lm.json", "g03.json", "--n", "4"],
    ["loops-distinguish", "lneg.json", "ln.json", "g03.json", "--n", "4"],
    ["loops-distinguish", "lm.json", "lbase.json", "g03.json", "--n", "4"],
    ["loops-distinguish", "lm.json", "ln.json", "bad.json", "--n", "4"],
    ["nearby", "g03.json", "g03.json"],
    ["nearby", "g03.json", "g032.json"],
    ["nearby", "g03.json", "g03.json", "--no-degree-pm1"],
    ["nearby", "g03.json", "p99.json"],
    ["chord-degree", "--down", "2", "--up", "0", "--ind", "0"],
    ["chord-degree", "--down", "5", "--up", "1", "--ind", "3"],
    ["chord-degree", "--down", "-1", "--up", "0", "--ind", "0"],
    ["chord-degree", "--down", "2", "--up", "0"],
    ["stabilize", "mixed.json"],
    ["stabilize", "mixed.json", "--big-n", "1", "--eps", "1/4",
     "--sites", "1"],
    ["stabilize", "chords.json", "--big-n", "0"],
    ["stabilize", "mixed.json", "--eps", "x"],
    ["stabilize", "mixed.json", "--eps", "5"],
    ["stabilize", "orbits.json"],
    ["self-index", "--n", "4", "--big-n", "3"],
    ["self-index", "--n", "5", "--big-n", "2"],
    ["self-index", "--n", "2", "--big-n", "1"],
    ["words", "chords.json", "--bound", "4"],
    ["words", "chords.json", "--bound", "5/2"],
    ["words", "chords.json", "--bound", "0"],
    ["words", "chords.json", "--bound", "x"],
    ["words", "chords.json"],
    ["surgery", "subcritical", "orbits.json", "--n", "3", "--k", "1",
     "--iterates", "3", "--eps", "1/2"],
    ["surgery", "subcritical", "orbits.json", "--n", "3", "--k", "1",
     "--iterates", "2"],
    ["surgery", "subcritical", "orbits.json", "--n", "3", "--k", "1",
     "--iterates", "0"],
    ["surgery", "subcritical", "orbits.json", "--n", "3", "--k", "2",
     "--iterates", "1"],
    ["surgery", "subcritical", "orbits.json", "--n", "3", "--k", "2",
     "--iterates", "1", "--assert-hypotheses"],
    ["surgery", "subcritical", "orbits.json", "--n", "3", "--k", "1",
     "--iterates", "1", "--eps", "1/0"],
    ["surgery", "subcritical", "chords.json", "--n", "3", "--k", "1",
     "--iterates", "1"],
    ["surgery", "flexible", "cert3.json", "--n", "3"],
    ["surgery", "flexible", "cert3.json", "--n", "3", "--chords",
     "chords.json", "--zigzag", "1/4"],
    ["surgery", "flexible", "cert1.json", "--n", "3", "--chords",
     "chords.json"],
    ["surgery", "flexible", "cert3.json", "--n", "3", "--zigzag", "x"],
    ["surgery", "flexible", "cert3.json", "--n", "3", "--chords",
     "nope.json"],
    ["surgery", "flexible", "deg0.json", "--n", "3"],
    ["surgery", "belt", "chords.json", "--bound", "5/2"],
    ["surgery", "belt", "chords.json"],
    ["surgery", "belt", "chords.json", "--bound", "9"],
    ["surgery", "belt", "chords.json", "--bound", "x"],
    ["surgery", "ambient", "chords.json", "--k", "1"],
    ["surgery", "ambient", "chords.json", "--k", "1", "--action", "1/3"],
    ["surgery", "ambient", "chords.json", "--k", "1", "--action", "x"],
    ["surgery", "ambient", "chords.json", "--k", "5"],
    ["adc-check", "empty.json"],
    ["adc-check", "cert3.json"],
    ["adc-check", "deg0.json"],
    ["adc-check", "chords.json"],
    ["normalize-cert", "cert4.json", "--eps", "1/2"],
    ["normalize-cert", "cert4.json", "--eps", "2"],
    ["normalize-cert", "cert4.json", "--eps", "x"],
    ["normalize-cert", "bad.json", "--eps", "1/2"],
    ["scaling-verify", "--grid", "301"],
    ["scaling-verify", "--grid", "301", "--csv", "profile.csv"],
    ["scaling-verify", "--grid", "301", "--tol", "-1"],
    ["scaling-verify", "--grid", "301", "--height", "0.5"],
    ["scaling-verify", "--grid", "301", "--tol", "x"],
    ["scaling-verify", "--grid", "301", "--t-max", "1.5"],
    ["scaling-verify", "--grid", "301", "--t-max", "0"],
    ["scaling-verify", "--grid", "4"],
    ["scaling-verify", "--grid", "0"],
    ["examples"],
    ["examples", "wedge-family", "--i", "7"],
    ["examples", "no-such"],
    ["frobnicate"],
]

COMMANDS = [
    ["homology"], ["boundary"], ["rank-form"], ["omega-check"], ["sh-plus"],
    ["wh-plus"], ["distinguish"], ["cem-bound"], ["loops-distinguish"],
    ["nearby"], ["chord-degree"], ["stabilize"], ["self-index"], ["words"],
    ["surgery", "subcritical"], ["surgery", "flexible"], ["surgery", "belt"],
    ["surgery", "ambient"], ["adc-check"], ["normalize-cert"],
    ["scaling-verify"], ["examples"],
]

CASES = ([args for run in RUNS for args in (run, run + ["--table"])]
         + [[], ["--help"], ["surgery"], ["surgery", "--help"]]
         + [command + ["--help"] for command in COMMANDS])


def _key(args):
    return " ".join(args) or "(no arguments)"


def _stream(text):
    if len(text) <= VERBATIM_LIMIT:
        return {"text": text}
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(),
            "length": len(text)}


def write_fixtures(directory):
    for name, doc in FIXTURES.items():
        with open(os.path.join(directory, name), "w") as fh:
            json.dump(doc, fh)
    for name, text in RAW_FIXTURES.items():
        with open(os.path.join(directory, name), "w") as fh:
            fh.write(text)


def transcript(args):
    """Run `weinkit ARGS` in the current directory; return its record."""
    result = invoke(args)
    return {"exit_code": result.exit_code,
            "stdout": _stream(result.stdout),
            "stderr": _stream(result.stderr)}


@pytest.fixture(scope="module")
def golden():
    with open(DATA) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli-golden")
    write_fixtures(str(directory))
    return directory


def test_every_command_is_covered():
    every = {tuple(name.split()) for name in REGISTERED}
    assert {tuple(c) for c in COMMANDS} == every
    run = {tuple(r[:2] if r[0] == "surgery" else r[:1]) for r in RUNS}
    assert every <= run


@pytest.mark.parametrize("args", CASES, ids=_key)
def test_transcript(args, golden, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    want = golden.get(_key(args))
    assert want is not None, "no golden record; regenerate the data file"
    assert transcript(args) == want


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        write_fixtures(directory)
        os.chdir(directory)
        records = {_key(args): transcript(args) for args in CASES}
    old = {}
    if os.path.exists(DATA):
        with open(DATA) as fh:
            old = json.load(fh)
    for key in sorted(records.keys() | old.keys()):
        if records.get(key) != old.get(key):
            sys.stdout.write(f"changed: {key}\n")
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    with open(DATA, "w") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    sys.stdout.write(f"wrote {len(records)} records to {DATA}\n")
