"""Command line contract: report shape, exit codes, determinism.

Exit codes: 0 success/property holds (detectors count "fired" as holding),
1 property fails, 2 invalid input.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import weinkit
from weinkit import cli
from weinkit.graded import GradedGroup
from weinkit.handles import HandlePresentation
from weinkit.models import (
    degree_zero_orbit_fixture,
    empty_certificate,
    mixed_sign_spectrum,
    sample_certificate,
    t_star_sphere,
    two_letter_table,
)
from weinkit.surgery import OrbitSpectrum
import oracles
from cli_invoke import invoke
from test_package import _python


@pytest.fixture
def files(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)
    return write


def report_of(result):
    return json.loads(result.stdout)


class TestWords:
    def test_two_letter_table(self, files):
        path = files("chords.json", two_letter_table().to_json())
        result = invoke(["words", path, "--bound", "4"])
        assert result.exit_code == 0
        doc = report_of(result)
        assert doc["schema"] == 1
        assert doc["command"] == "words"
        assert "formula" in doc
        assert doc["count"] == 7
        table = {r["word"]: (r["degree"], r["action"]) for r in doc["result"]}
        assert table == {
            "a": (1, "1"), "a.a": (2, "2"), "a.a.a": (3, "3"),
            "b": (2, "3/2"), "b.b": (4, "3"), "a.b": (3, "5/2"),
            "a.a.b": (4, "7/2"),
        }

    def test_bad_bound_is_invalid_input(self, files):
        path = files("chords.json", two_letter_table().to_json())
        assert invoke(["words", path, "--bound", "0"]).exit_code == 2
        assert invoke(["words", path, "--bound", "x"]).exit_code == 2

    def test_byte_identical_runs(self, files):
        path = files("chords.json", two_letter_table().to_json())
        a = invoke(["words", path, "--bound", "4"]).stdout
        b = invoke(["words", path, "--bound", "4"]).stdout
        assert a == b


class TestHomologyCommands:
    def test_homology_integral(self, files):
        path = files("p.json", t_star_sphere(3).to_json())
        doc = report_of(invoke(["homology", path]))
        assert doc["result"] == {"0": {"rank": 1, "torsion": []},
                                 "3": {"rank": 1, "torsion": []}}
        assert doc["euler_characteristic"] == 0

    def test_homology_field_dims(self, files):
        path = files("p.json", t_star_sphere(3).to_json())
        for coeff in ("Q", "F2"):
            doc = report_of(invoke(["homology", path,
                                    "--coeff", coeff]))
            assert doc["result"] == {"0": 1, "3": 1}
            assert doc["coefficients"] == coeff

    def test_homology_f2_matches_mod2_elimination(self, files):
        # seeded presentations in standard form, conjugated degree by
        # degree; the torsion factors step by 2, 3, 5 or 6
        torsion = set()
        for seed in range(30):
            rng = random.Random(seed)
            n = rng.randint(2, 5)
            betti = {0: 1, **{k: rng.randint(0, 2) for k in range(1, n + 1)}}
            ranks = {k: rng.randint(0, 3) for k in range(2, n + 1)}
            dims, boundaries, parts = oracles.conjugated_complex(
                rng, betti, ranks, unit_share=0.3, steps=2)
            torsion.update(f % 2 for _, _, chain in parts for f in chain)
            handles = [k for k, count in dims.items() for _ in range(count)]
            path = files(f"p{seed}.json", HandlePresentation(
                n, handles, boundaries=boundaries).to_json())
            doc = report_of(invoke(["homology", path, "--coeff", "F2"]))
            want = oracles.f2_homology_dims(dims, boundaries)
            assert doc["result"] == {str(k): v for k, v in want.items()}, seed
        assert torsion == {0, 1}, "want both even and odd torsion"

    def test_boundary(self, files):
        path = files("p.json", t_star_sphere(3).to_json())
        result = invoke(["boundary", path])
        assert result.exit_code == 0
        doc = report_of(result)
        assert doc["result"]["boundary_dim"] == 5
        assert doc["result"]["euler"] == 0

    def test_rank_form(self, files):
        path = files("p.json", t_star_sphere(4).to_json())
        doc = report_of(invoke(["rank-form", path]))
        assert doc["result"] == 1

    def test_malformed_json_is_invalid_input(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = invoke(["homology", str(bad)])
        assert result.exit_code == 2
        assert "error" in report_of(result)

    def test_non_utf8_file_is_named(self, tmp_path):
        # used to report only "'utf-8' codec can't decode byte 0xff ..."
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        result = invoke(["homology", str(bad)])
        assert result.exit_code == 2
        assert report_of(result)["error"].startswith(f"{bad} is not JSON: ")

    def test_schema_violation_is_invalid_input(self, files):
        path = files("p.json", {"schema": 99, "n": 3, "handles": []})
        assert invoke(["homology", path]).exit_code == 2

    def test_missing_file_is_invalid_input(self):
        assert invoke(["homology", "nope.json"]).exit_code == 2


class TestMalformedInput:
    @pytest.mark.parametrize("entry", [[1], {"rank": 0, "torsion": "16"}])
    def test_group_degree_entry(self, files, entry):
        path = files("g.json", {"schema": 1, "graded_group": {"0": entry}})
        for args in (["omega-check", path, "--n", "5"],
                     ["sh-plus", path, "--n", "3"],
                     ["distinguish", path, path, "--n", "3"]):
            result = invoke(args)
            assert result.exit_code == 2
            doc = report_of(result)
            assert doc["ok"] is False and "GradedGroup: degree 0" in doc["error"]

    def test_group_rank_not_an_integer(self, files):
        path = files("g.json", {"schema": 1,
                                "graded_group": {"0": {"rank": 1.7}}})
        result = invoke(["omega-check", path, "--n", "5"])
        assert result.exit_code == 2
        assert ("GradedGroup: degree 0 rank must be an integer, got 1.7"
                in report_of(result)["error"])

    def test_loop_table_dims_not_an_object(self, files):
        lm = files("lm.json", {"schema": 1, "dims": [1], "base": {"0": 1}})
        hy = files("hy.json", GradedGroup.free({0: 1}).to_json())
        result = invoke(["loops-distinguish", lm, lm, hy, "--n", "4"])
        assert result.exit_code == 2
        assert "'dims' must be an object" in report_of(result)["error"]

    def test_boundary_matrices_not_an_object(self, files):
        path = files("p.json", {"schema": 1, "n": 2, "handles": [{"index": 0}],
                                "boundary_matrices": [1]})
        result = invoke(["homology", path])
        assert result.exit_code == 2
        assert ("'boundary_matrices' must be an object"
                in report_of(result)["error"])

    def test_boolean_field_not_a_boolean(self, files):
        doc = two_letter_table().to_json()
        doc["chords"][0]["null_homotopic"] = "false"
        path = files("chords.json", doc)
        result = invoke(["words", path, "--bound", "4"])
        assert result.exit_code == 2
        assert ("null_homotopic must be true or false, got 'false'"
                in report_of(result)["error"])

    def test_chord_id_not_a_string(self, files):
        # "id": null used to read as the chord "None"
        doc = two_letter_table().to_json()
        doc["chords"][0]["id"] = None
        path = files("chords.json", doc)
        result = invoke(["words", path, "--bound", "4"])
        assert result.exit_code == 2
        assert ("chord id must be a string, got None"
                in report_of(result)["error"])

    @pytest.mark.parametrize("args, doc, message", [
        (["stabilize"], {"schema": 1, "n": 3, "bound": "4", "chords": [1]},
         "ChordSpectrum: ChordRecord: expected a JSON object"),
        (["surgery", "subcritical"],
         {"schema": 1, "n": 3, "bound": "4", "orbits": ["x"]},
         "OrbitSpectrum: OrbitRecord: expected a JSON object"),
        (["adc-check"], {"schema": 1, "stages": [5]},
         "ADCCertificate: Stage: expected a JSON object")])
    def test_non_object_record_is_invalid_input(self, files, args, doc,
                                                message):
        # a chord 1 used to end in AttributeError and exit 1
        path = files("doc.json", doc)
        extra = ["--n", "3", "--k", "1", "--iterates", "1"] \
            if args[0] == "surgery" else []
        result = invoke(args + [path] + extra)
        assert result.exit_code == 2
        assert report_of(result)["error"] == f"{path}: {message}"


class TestDetectors:
    def test_distinguish_fires_and_exits_zero(self, files):
        a = files("a.json", GradedGroup.free({0: 1, 3: 1}).to_json())
        b = files("b.json", GradedGroup.free({0: 1, 3: 2}).to_json())
        result = invoke(["distinguish", a, b, "--n", "3"])
        assert result.exit_code == 0
        assert report_of(result)["result"]["fired"] is True

    def test_distinguish_quiet_exits_one(self, files):
        a = files("a.json", GradedGroup.free({0: 1, 3: 1}).to_json())
        result = invoke(["distinguish", a, a, "--n", "3"])
        assert result.exit_code == 1
        assert report_of(result)["result"]["fired"] is False

    def test_cem_bound(self):
        assert invoke(["cem-bound", "--k", "5",
                       "--dim", "2"]).exit_code == 0
        assert invoke(["cem-bound", "--k", "2",
                       "--dim", "2"]).exit_code == 1
        assert invoke(["cem-bound", "--k", "0",
                       "--dim", "2"]).exit_code == 2

    def test_loops_distinguish(self, files):
        lm = files("lm.json", {"schema": 1, "dims": {"0": 1, "2": 12},
                               "base": {"0": 1}, "horizon": 4})
        ln = files("ln.json", {"schema": 1, "dims": {"0": 1, "2": 2},
                               "base": {"0": 1}, "horizon": 4})
        hy = files("hy.json", GradedGroup.free({0: 1}).to_json())
        result = invoke(["loops-distinguish", lm, ln, hy, "--n", "4"])
        assert result.exit_code == 0
        assert report_of(result)["result"]["witness"]["degree"] == 2

    def test_nearby(self, files):
        a = files("a.json", GradedGroup.free({0: 1, 3: 1}).to_json())
        b = files("b.json", GradedGroup.free({0: 1, 3: 2}).to_json())
        assert invoke(["nearby", a, a]).exit_code == 0
        assert invoke(["nearby", a, b]).exit_code == 1
        assert invoke(["nearby", a, a,
                       "--no-degree-pm1"]).exit_code == 1

    def test_omega_check(self, files):
        path = files("h.json", GradedGroup.free({0: 1, 3: 1}).to_json())
        flags = ["--closed", "--simply-connected", "--stably-parallelizable"]
        assert invoke(["omega-check", path, "--n", "5"]
              + flags).exit_code == 0
        assert invoke(["omega-check", path,
                       "--n", "5"]).exit_code == 1


class TestProfiles:
    def test_sh_plus(self, files):
        path = files("h.json", GradedGroup.free({0: 1, 3: 2}).to_json())
        doc = report_of(invoke(["sh-plus", path, "--n", "3"]))
        assert doc["result"]["profile"] == {
            "1": {"rank": 2, "torsion": []},
            "4": {"rank": 1, "torsion": []},
        }

    def test_sh_plus_support_violation_is_invalid_input(self, files):
        path = files("h.json", GradedGroup.free({0: 1, 7: 1}).to_json())
        assert invoke(["sh-plus", path, "--n", "3"]).exit_code == 2

    def test_wh_plus_support_violation_is_invalid_input(self, files):
        path = files("h.json", GradedGroup.free({0: 1, 7: 1}).to_json())
        result = invoke(["wh-plus", path, "--n", "3"])
        assert result.exit_code == 2
        assert "outside degrees [0, 3]" in report_of(result)["error"]

    def test_wh_plus(self, files):
        path = files("h.json", GradedGroup.free({0: 1, 2: 1}).to_json())
        doc = report_of(invoke(["wh-plus", path, "--n", "3"]))
        assert doc["result"]["profile"] == {
            "0": {"rank": 1, "torsion": []},
            "2": {"rank": 1, "torsion": []},
        }


class TestChordCommands:
    def test_chord_degree(self):
        doc = report_of(invoke(["chord-degree", "--down", "2",
                                "--up", "0", "--ind", "0"]))
        assert doc["result"] == 1

    def test_stabilize_defaults(self, files):
        path = files("s.json", mixed_sign_spectrum().to_json())
        result = invoke(["stabilize", path])
        assert result.exit_code == 0
        doc = report_of(result)
        assert doc["N"] == 3
        degrees = [c["degree"] for c in doc["result"]["chords"]]
        assert min(degrees) >= 1

    def test_self_index(self):
        doc = report_of(invoke(["self-index", "--n", "4",
                                "--big-n", "3"]))
        assert doc["result"] == {"value": 0, "modulus": "Z",
                                 "vanishes": True}
        assert invoke(["self-index", "--n", "2",
                       "--big-n", "1"]).exit_code == 2


class TestSurgeryGroup:
    def test_subcritical(self, files):
        path = files("o.json",
                     OrbitSpectrum(3, (), Fraction(10)).to_json())
        doc = report_of(invoke([
            "surgery", "subcritical", path, "--n", "3", "--k", "1",
            "--iterates", "3", "--eps", "1/2"]))
        assert [o["degree"] for o in doc["result"]["orbits"]] == [3, 5, 7]

    def test_flexible(self, files):
        path = files("c.json", sample_certificate(3, 3).to_json())
        doc = report_of(invoke(["surgery", "flexible", path, "--n", "3"]))
        assert [s["bound"] for s in doc["result"]["stages"]] == ["1", "2", "3"]

    def test_belt(self, files):
        path = files("s.json", two_letter_table().to_json())
        doc = report_of(invoke(["surgery", "belt", path,
                                "--bound", "5/2"]))
        assert sorted(c["id"] for c in doc["result"]["chords"]) \
            == ["w:a", "w:a.a", "w:b"]

    def test_belt_window_too_large(self, files):
        path = files("s.json", two_letter_table().to_json())
        assert invoke(["surgery", "belt", path,
                       "--bound", "9"]).exit_code == 2

    def test_ambient(self, files):
        path = files("s.json", two_letter_table().to_json())
        doc = report_of(invoke(["surgery", "ambient", path,
                                "--k", "1"]))
        new = [c for c in doc["result"]["chords"] if c["id"] == "surg"]
        assert len(new) == 1 and new[0]["degree"] == 1


class TestCertificates:
    def test_adc_check_pass(self, files):
        path = files("c.json", empty_certificate().to_json())
        assert invoke(["adc-check", path]).exit_code == 0

    @pytest.mark.parametrize("stages", ["", {}])
    def test_adc_check_non_list_stages_is_invalid_input(self, files,
                                                        stages):
        # used to report a valid certificate and exit 0
        path = files("c.json", {"schema": 1, "stages": stages})
        result = invoke(["adc-check", path])
        assert result.exit_code == 2
        assert "stages must be a list" in report_of(result)["error"]

    def test_adc_check_fail(self, files):
        path = files("c.json", degree_zero_orbit_fixture().to_json())
        result = invoke(["adc-check", path])
        assert result.exit_code == 1
        witness = report_of(result)["result"]["witness"]
        assert (witness["stage"], witness["record"]) == (1, 1)

    def test_normalize(self, files):
        path = files("c.json", sample_certificate(3, 4).to_json())
        result = invoke(["normalize-cert", path, "--eps", "1/2"])
        assert result.exit_code == 0
        doc = report_of(result)
        bounds = [Fraction(s["bound"]) for s in doc["result"]["stages"]]
        assert all(b2 >= 2 * b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_normalize_bad_eps(self, files):
        path = files("c.json", sample_certificate(3, 4).to_json())
        assert invoke(["normalize-cert", path,
                       "--eps", "2"]).exit_code == 2


class TestScalingVerify:
    def test_small_grid_passes(self, tmp_path):
        csv_path = tmp_path / "profile.csv"
        result = invoke(["scaling-verify", "--grid", "301",
                         "--csv", str(csv_path)])
        assert result.exit_code == 0
        doc = report_of(result)
        assert doc["result"]["ok"] is True
        assert doc["result"]["ratio"]["holds"] is True
        assert doc["result"]["conformal"]["holds"] is True
        assert doc["result"]["family"]["ok"] is True
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "z,g,G"
        assert len(lines) == 302

    def test_unwritable_csv_is_invalid_input(self, tmp_path):
        csv_path = tmp_path / "missing" / "profile.csv"
        result = invoke(["scaling-verify", "--grid", "301",
                         "--csv", str(csv_path)])
        assert result.exit_code == 2
        doc = report_of(result)
        assert doc["command"] == "scaling-verify" and doc["ok"] is False
        assert doc["error"].startswith(f"cannot write {csv_path}: ")

    @pytest.mark.parametrize("t_max, message", [
        ("nan", "t_max must be nonnegative, got nan")])
    def test_degenerate_t_grid_is_invalid_input(self, t_max, message):
        # used to exit 2 with numpy's zero-size reduction error
        result = invoke(["scaling-verify", "--grid", "301",
                         "--t-max", t_max])
        assert result.exit_code == 2
        assert report_of(result)["error"].startswith(message)

    @pytest.mark.parametrize("t_max", ["0", "1e-9"])
    def test_small_t_max_passes(self, t_max):
        # the float grid refused these for want of an interior t row
        result = invoke(["scaling-verify", "--grid", "301",
                         "--t-max", t_max])
        assert result.exit_code == 0
        assert report_of(result)["result"]["ok"] is True

    def test_large_grid_without_csv_returns_at_once(self):
        # the float grid took 8.4 s at 2000001 nodes; only --csv reads it
        start = time.perf_counter()
        result = invoke(["scaling-verify", "--grid", "20000001"])
        elapsed = time.perf_counter() - start
        assert result.exit_code == 0
        assert elapsed < 2, f"{elapsed:.2f} s"

    def test_bad_height_is_invalid_input(self):
        assert invoke(["scaling-verify", "--grid", "301",
                       "--height", "0.5"]).exit_code == 2


class TestExamples:
    def test_single_entry_with_parameter(self):
        result = invoke(["examples", "wedge-family", "--i", "7"])
        assert result.exit_code == 0
        doc = report_of(result)
        assert doc["results"][0]["checks"][0]["got"] == 7
        assert "elapsed_s" not in doc

    def test_full_corpus(self):
        result = invoke(["examples"])
        assert result.exit_code == 0
        doc = report_of(result)
        assert doc["ok"] is True
        assert len(doc["results"]) >= 12

    def test_unknown_example(self):
        assert invoke(["examples", "no-such"]).exit_code == 2

    def test_byte_identical(self):
        a = invoke(["examples"]).stdout
        b = invoke(["examples"]).stdout
        assert a == b


class TestHarness:
    def test_unknown_command_exits_two(self):
        result = invoke(["frobnicate"])
        assert result.exit_code == 2

    def test_table_mode_renders_rows(self, files):
        path = files("chords.json", two_letter_table().to_json())
        result = invoke(["words", path, "--bound", "4", "--table"])
        assert result.exit_code == 0
        assert "word" in result.stdout and "a.a.b" in result.stdout
        # table mode must not change the verdict, only the rendering
        assert "{" not in result.stdout.split("result:")[1]


class TestLargeInput:
    """Large but legal input, and rationals in exponent notation, each run
    as a `weinkit` process under a 10 s timeout, so a walk over a declared
    range fails the test instead of hanging it."""

    @staticmethod
    def weinkit(args, cwd):
        start = time.perf_counter()
        out = _python(["-m", "weinkit.cli", *args], cwd=cwd, timeout=10)
        return out, time.perf_counter() - start

    def test_omega_check_at_a_far_odd_n(self, files, tmp_path):
        files("g.json", GradedGroup.free({0: 1}).to_json())
        out, _ = self.weinkit(
            ["omega-check", "g.json", "--n", "999999999", "--closed",
             "--simply-connected", "--stably-parallelizable"], tmp_path)
        assert out.returncode == 0
        assert json.loads(out.stdout)["result"] == {
            "member": True, "reason": "n odd and semi-characteristic = 1"}

    def test_loops_distinguish_at_a_far_horizon(self, files, tmp_path):
        table = {"schema": 1, "dims": {"0": 1}, "base": {"0": 1},
                 "horizon": 1000000000}
        files("l.json", table)
        files("g.json", GradedGroup.free({0: 1}).to_json())
        out, _ = self.weinkit(
            ["loops-distinguish", "l.json", "l.json", "g.json", "--n", "3"],
            tmp_path)
        assert out.returncode == 1
        result = json.loads(out.stdout)["result"]
        assert result["outcome"] == "indistinguishable by this invariant"
        assert result["witness"] == {"horizon": 1000000000}

    def test_rank_form_at_a_far_n(self, files, tmp_path):
        # used to build the boundary report over all 2n degrees
        files("p.json", {"schema": 1, "n": 1000000000,
                         "handles": [{"index": 0}]})
        out, seconds = self.weinkit(["rank-form", "p.json"], tmp_path)
        assert out.returncode == 0 and seconds < 2
        assert json.loads(out.stdout)["result"] == 0

    def test_exponent_action_is_invalid_input(self, files, tmp_path):
        # Fraction("1e200000") has 200001 digits, too many to print
        doc = two_letter_table().to_json()
        doc["chords"][0]["action"] = "1e200000"
        files("chords.json", doc)
        out, seconds = self.weinkit(["words", "chords.json", "--bound", "4"],
                                    tmp_path)
        assert out.returncode == 2 and seconds < 1
        assert json.loads(out.stdout)["error"].endswith(
            "bad rational '1e200000': exponent notation is not accepted")

    def test_exponent_option_is_invalid_input(self, files, tmp_path):
        files("chords.json", two_letter_table().to_json())
        out, seconds = self.weinkit(
            ["words", "chords.json", "--bound", "1e1000000"], tmp_path)
        assert out.returncode == 2 and seconds < 1
        assert json.loads(out.stdout)["error"] == (
            "--bound wants a rational like 3/2, got '1e1000000': "
            "exponent notation is not accepted")


class TestParsing:
    """How the command line reads its tokens, each run as a `weinkit`
    process."""

    @staticmethod
    def weinkit(args, cwd):
        return _python(["-m", "weinkit.cli", *args], cwd=cwd)

    def test_value_option_takes_a_dash_token(self, files, tmp_path):
        files("c.json", sample_certificate(3, 4).to_json())
        out = self.weinkit(["normalize-cert", "c.json", "--eps", "-1/2"],
                           tmp_path)
        assert out.returncode == 2
        assert json.loads(out.stdout) == {
            "command": "normalize-cert", "error": "need 0 < eps < 1, got -1/2",
            "ok": False, "schema": 1}

    def test_value_option_takes_an_option_name(self, files, tmp_path):
        files("c.json", sample_certificate(3, 4).to_json())
        out = self.weinkit(["normalize-cert", "c.json", "--eps", "--table"],
                           tmp_path)
        assert out.returncode == 2
        doc = json.loads(out.stdout)
        assert doc["ok"] is False
        assert doc["error"].startswith(
            "--eps wants a rational like 3/2, got '--table'")

    def test_options_are_not_abbreviated(self, files, tmp_path):
        files("p.json", t_star_sphere(3).to_json())
        out = self.weinkit(["homology", "p.json", "--coe", "Z"], tmp_path)
        assert out.returncode == 2
        assert out.stdout == ""

    def test_negated_flags(self, files, tmp_path):
        files("g.json", GradedGroup.from_dict(
            {0: (1, ()), 2: (0, (2, 4)), 3: (1, (3,))}).to_json())
        out = self.weinkit(["sh-plus", "g.json", "--n", "3", "--no-weinstein"],
                           tmp_path)
        assert out.returncode == 0
        assert json.loads(out.stdout)["result"] == {
            "profile": {"1": {"rank": 1, "torsion": ["3"]},
                        "2": {"rank": 0, "torsion": ["2", "4"]},
                        "4": {"rank": 1, "torsion": []}},
            "provenance": "formula", "schema": 1}
        out = self.weinkit(["nearby", "g.json", "g.json", "--no-degree-pm1"],
                           tmp_path)
        assert out.returncode == 1
        assert json.loads(out.stdout)["result"] == {
            "coefficients": "Z", "fired": False, "outcome": "inconclusive",
            "schema": 1, "witness": {"reason": "projection degree not +-1"}}

    def test_closed_stdout_exits_one_without_a_traceback(self, files,
                                                         tmp_path):
        # 3^10 / 10 words or so: the reader is gone long before the report
        files("big.json", {"schema": 1, "n": 3, "bound": "2", "chords": [
            {"id": c, "degree": d, "action": "1"}
            for c, d in (("a", 1), ("b", 2), ("c", 3))]})
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(weinkit.__file__)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "weinkit.cli", "words", "big.json",
             "--bound", "11"], cwd=tmp_path, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert stderr == b""

    def test_help_into_a_closed_stdout_exits_one_when_unbuffered(self):
        # unbuffered, the write fails inside argparse, not at the last flush;
        # the pipe has no reader before the process starts
        read, write = os.pipe()
        os.close(read)
        env = dict(os.environ, PYTHONUNBUFFERED="1", PYTHONPATH=os.path.dirname(
            os.path.dirname(weinkit.__file__)))
        try:
            out = subprocess.run(
                [sys.executable, "-m", "weinkit.cli", "--help"], env=env,
                stdout=write, stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write)
        assert out.returncode == 1
        assert out.stderr == b""

    def test_usage_error_into_a_closed_stderr_exits_two(self):
        # a usage error still exits 2 when its message cannot be written
        read, write = os.pipe()
        os.close(read)
        env = dict(os.environ, PYTHONUNBUFFERED="1", PYTHONPATH=os.path.dirname(
            os.path.dirname(weinkit.__file__)))
        try:
            out = subprocess.run(
                [sys.executable, "-m", "weinkit.cli", "frobnicate"], env=env,
                stdout=subprocess.PIPE, stderr=write, timeout=60)
        finally:
            os.close(write)
        assert out.returncode == 2
        assert out.stdout == b""

    def test_usage_error_without_a_stderr_exits_two(self, monkeypatch):
        monkeypatch.setattr(sys, "stderr", None)
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2
