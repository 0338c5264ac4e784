"""Chord degrees, zig-zag stabilization, self-intersection indices."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import weinkit.chords as chords_mod
from weinkit.chords import (
    ChordRecord,
    ChordSpectrum,
    MorseData,
    SelfIntersectionIndex,
    chord_degree,
    choose_Q,
    min_positive_N,
    self_intersection_index,
    stabilize,
)
from weinkit.serialize import SchemaError, frac_from_str


def spectrum_of(degrees, bound=4, n=3):
    chords = tuple(
        ChordRecord(f"c{i}", d, Fraction(i + 1, len(degrees) + 1) * Fraction(bound))
        for i, d in enumerate(degrees))
    return ChordSpectrum(n, chords, Fraction(bound))


class TestDegreeFormula:
    def test_checkpoints(self):
        assert chord_degree(2, 0, 0) == 1
        assert chord_degree(0, 0, 0) == -1
        for j in range(6):
            assert chord_degree(2, 0, j) == 1 + j

    def test_negative_inputs(self):
        for bad in ((-1, 0, 0), (0, -2, 0), (0, 0, -1)):
            with pytest.raises(ValueError):
                chord_degree(*bad)

    @given(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9))
    def test_front_roundtrip(self, d, u, ind):
        c = ChordRecord("c", chord_degree(d, u, ind), Fraction(1, 2),
                        front=(d, u, ind))
        assert c.degree == chord_degree(*c.front)


class TestRecordsAndSpectra:
    def test_front_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            ChordRecord("c", 5, 1, front=(2, 0, 0))

    def test_action_positive(self):
        with pytest.raises(ValueError, match="positive"):
            ChordRecord("c", 1, 0)
        with pytest.raises(ValueError, match="positive"):
            ChordRecord("c", 1, Fraction(-1, 3))

    @pytest.mark.parametrize("chord_id, message", [
        (5, "chord id must be a string, got 5"),
        ("", "chord id must not be empty")])
    def test_id_is_a_non_empty_string(self, chord_id, message):
        # both used to build spectra whose to_json the reader rejects
        with pytest.raises(ValueError, match=message):
            ChordRecord(chord_id, 1, 1)

    def test_duplicate_ids(self):
        c = ChordRecord("c", 1, 1)
        with pytest.raises(ValueError, match="duplicate"):
            ChordSpectrum(3, (c, c), 2)

    def test_bound_enforced(self):
        c = ChordRecord("c", 1, 3)
        with pytest.raises(ValueError, match="bound"):
            ChordSpectrum(3, (c,), 2)

    def test_json_roundtrip(self):
        s = ChordSpectrum(4, (
            ChordRecord("a", 1, Fraction(3, 7), front=(2, 0, 0)),
            ChordRecord("b", -2, Fraction(1, 2), null_homotopic=False),
        ), Fraction(9, 2))
        t = ChordSpectrum.from_json(s.to_json())
        assert t == s
        assert s.to_json()["chords"][0]["action"] == "3/7"
        with pytest.raises(SchemaError,
                           match="^ChordSpectrum: missing key 'chords'$"):
            ChordSpectrum.from_json({"schema": 1, "n": 3})

    @pytest.mark.parametrize("chord", [1, "c", None, ["c"]])
    def test_spectrum_from_json_rejects_non_object_chords(self, chord):
        # a chord 1 used to raise AttributeError: 'int' object has no
        # attribute 'get'
        with pytest.raises(SchemaError, match=(
                "^ChordSpectrum: ChordRecord: expected a JSON object$")):
            ChordSpectrum.from_json({"schema": 1, "n": 3, "bound": "4",
                                     "chords": [chord]})

    @pytest.mark.parametrize("field, value", [
        ("degree", 1.5), ("degree", True), ("front", [2, 0, 0.5])])
    def test_record_from_json_rejects_non_integers(self, field, value):
        # a degree of 1.5 used to read as 1
        doc = {"id": "c", "degree": 1, "action": "1", "front": None,
               field: value}
        with pytest.raises(SchemaError, match="must be an integer"):
            ChordRecord.from_json(doc)

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_record_from_json_rejects_non_booleans(self, value):
        # the string "false" used to read as a null-homotopic chord
        doc = {"id": "c", "degree": 1, "action": "1", "null_homotopic": value}
        with pytest.raises(SchemaError, match="null_homotopic must be true"):
            ChordRecord.from_json(doc)

    @pytest.mark.parametrize("chords", ["", {}, "ab"])
    def test_spectrum_from_json_rejects_non_list_chords(self, chords):
        # "chords": "" used to read as an empty spectrum
        with pytest.raises(SchemaError, match="chords must be a list"):
            ChordSpectrum.from_json({"schema": 1, "n": 3, "bound": "2",
                                     "chords": chords})

    def test_record_from_json_rejects_non_list_front(self):
        # "front": "201" used to read as the front (2, 0, 1)
        doc = {"id": "c", "degree": 1, "action": "1", "front": "201"}
        with pytest.raises(SchemaError, match="front must be a list"):
            ChordRecord.from_json(doc)

    @pytest.mark.parametrize("chord_id, message", [
        (None, "chord id must be a string, got None"),
        (["a"], r"chord id must be a string, got \['a'\]"),
        ("", "chord id must not be empty")])
    def test_record_from_json_rejects_non_string_ids(self, chord_id, message):
        # null used to read as the chord "None", ["a"] as "['a']"
        with pytest.raises(SchemaError, match=message):
            ChordRecord.from_json({"id": chord_id, "degree": 1, "action": "1"})

    def test_spectrum_from_json_rejects_integer_ids(self):
        # ids 1 and "1" used to be reported as a duplicate chord id '1'
        chords = [{"id": 1, "degree": 1, "action": "1"},
                  {"id": "1", "degree": 1, "action": "1"}]
        with pytest.raises(SchemaError, match="chord id must be a string, got 1"):
            ChordSpectrum.from_json({"schema": 1, "n": 3, "bound": "2",
                                     "chords": chords})

    @pytest.mark.parametrize("action", [True, False])
    def test_record_from_json_rejects_boolean_action(self, action):
        # "action": true used to read as action 1
        doc = {"id": "c", "degree": 1, "action": action}
        with pytest.raises(SchemaError, match="rational must be"):
            ChordRecord.from_json(doc)

    @pytest.mark.parametrize("action, value", [
        ("3/2", Fraction(3, 2)), ("+2", Fraction(2)), ("1.25", Fraction(5, 4)),
        (" 7 ", Fraction(7)), (4, Fraction(4))])
    def test_record_from_json_reads_rationals(self, action, value):
        doc = {"id": "c", "degree": 1, "action": action}
        assert ChordRecord.from_json(doc).action == value

    @pytest.mark.parametrize("action", ["1e5", "1E+5", "2.5e-3", "1e1_000"])
    def test_record_from_json_rejects_exponent_notation(self, action):
        doc = {"id": "c", "degree": 1, "action": action}
        with pytest.raises(SchemaError, match=(
                re.escape(f"bad rational '{action}': ")
                + "exponent notation is not accepted")):
            ChordRecord.from_json(doc)

    def test_record_from_json_keeps_fraction_message(self):
        doc = {"id": "c", "degree": 1, "action": "one"}
        with pytest.raises(SchemaError, match=(
                "bad rational 'one': Invalid literal for Fraction: 'one'")):
            ChordRecord.from_json(doc)


def fraction_reader(text):
    """What frac_from_str read before its ASCII "p/q" path: the exponent
    refusal, then Fraction(text), a message standing for a SchemaError."""
    try:
        if re.search(r"[eE][+-]?[0-9]", text):
            raise ValueError("exponent notation is not accepted")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        return f"bad rational {text!r}: {exc}"


@pytest.mark.parametrize("text, want", [
    ("3/4", Fraction(3, 4)), ("+3/4", Fraction(3, 4)), ("-0/5", Fraction(0)),
    ("04/06", Fraction(2, 3)), ("3/0", "bad rational '3/0': Fraction(3, 0)"),
    (" 3/4", Fraction(3, 4)), ("3_0/4", None),
    ("3/-4", "bad rational '3/-4': Invalid literal for Fraction: '3/-4'"),
    ("\u00b2/3", "bad rational '\u00b2/3': Invalid literal for Fraction: "
     "'\u00b2/3'"),
    ("1e5", "bad rational '1e5': exponent notation is not accepted"),
    ("1.25", Fraction(5, 4))])
def test_frac_from_str_keeps_every_value_and_message(text, want):
    # "3_0/4" reads as 15/2 where Fraction takes underscores (3.11 on); the
    # value comes as (p, q) in lowest terms
    try:
        p, q = frac_from_str(text)
    except SchemaError as exc:
        got = str(exc)
    else:
        got = Fraction(p, q)
        assert (p, q) == (got.numerator, got.denominator)
    assert got == fraction_reader(text)
    assert want is None or got == want


class TestMorseData:
    def test_chi_consistency(self):
        with pytest.raises(ValueError, match="inconsistent"):
            MorseData("bad", 2, 1, True, (0, 1))
        MorseData("sphere", 2, 2, True, (0, 2))

    def test_index_bounds(self):
        with pytest.raises(ValueError, match="outside"):
            MorseData("bad", 1, 0, True, (0, 3))

    def test_json_roundtrip(self):
        q = choose_Q(5)
        assert MorseData.from_json(q.to_json()) == q

    def test_from_json_rejects_non_integers(self):
        doc = dict(choose_Q(3).to_json(), critical_points=[0, 1.0])
        with pytest.raises(SchemaError, match="critical index must be"):
            MorseData.from_json(doc)

    def test_from_json_rejects_non_booleans(self):
        doc = dict(choose_Q(3).to_json(), orientable="false")
        with pytest.raises(SchemaError, match="orientable must be true"):
            MorseData.from_json(doc)

    def test_from_json_rejects_non_string_name(self):
        # a name of 3 used to read as "3"
        doc = dict(choose_Q(3).to_json(), name=3)
        with pytest.raises(SchemaError, match="name must be a string, got 3"):
            MorseData.from_json(doc)

    def test_from_json_rejects_non_list_critical_points(self):
        # "critical_points": "01" used to read as (0, 1)
        doc = dict(choose_Q(3).to_json(), critical_points="01")
        with pytest.raises(SchemaError, match="critical_points must be a list"):
            MorseData.from_json(doc)


class TestStabilize:
    Q6 = choose_Q(6)

    def test_identity_at_zero(self):
        s = spectrum_of([-2, 1])
        assert stabilize(s, 0, self.Q6, Fraction(1, 10)) == s

    def test_degree_shift_and_floor(self):
        s = spectrum_of([-2])
        out = stabilize(s, 3, self.Q6, Fraction(1, 10))
        old = [c for c in out.chords if c.id == "c0"]
        assert old[0].degree == 4  # -2 + 2*3 = N + 1

    def test_counts_and_new_degrees(self):
        s = spectrum_of([0], n=6)
        out = stabilize(s, 3, self.Q6, Fraction(1, 10))
        new = [c for c in out.chords if c.id != "c0"]
        assert len(new) == 2 * 3 * 4  # 2Nq with one site
        by_degree = {}
        for c in new:
            by_degree[c.degree] = by_degree.get(c.degree, 0) + 1
        assert by_degree == {1: 6, 2: 6, 4: 6, 5: 6}  # {1, 2, n-2, n-1}
        assert all(c.null_homotopic and c.front[:2] == (2, 0) for c in new)

    def test_new_actions_below_eps_and_distinct(self):
        s = spectrum_of([0, -1])
        eps = Fraction(1, 5)
        out = stabilize(s, 2, self.Q6, eps)
        new = [c for c in out.chords if not c.id.startswith("c")]
        actions = [c.action for c in new]
        assert len(set(actions)) == len(actions)
        assert all(0 < a < eps for a in actions)

    def test_old_actions_unchanged(self):
        s = spectrum_of([-3, 0, 2])
        out = stabilize(s, 1, self.Q6, Fraction(1, 7))
        for before in s.chords:
            after = next(c for c in out.chords if c.id == before.id)
            assert after.action == before.action
            assert after.degree == before.degree + 2

    def test_eps_must_fit_bound(self):
        s = spectrum_of([0], bound=1)
        with pytest.raises(ValueError, match="bound"):
            stabilize(s, 1, self.Q6, Fraction(3, 2))

    def test_explicit_sites(self):
        s = spectrum_of([1, 2])  # no non-positive chords
        out_default = stabilize(s, 1, self.Q6, Fraction(1, 9))
        assert len(out_default.chords) == 2  # zero sites by default
        out = stabilize(s, 1, self.Q6, Fraction(1, 9), sites=3)
        assert len(out.chords) == 2 + 2 * 1 * 4 * 3

    def test_min_positive_N(self):
        assert min_positive_N(spectrum_of([1, 5])) == 0
        assert min_positive_N(spectrum_of([0, 3])) == 1
        assert min_positive_N(spectrum_of([-5, 2])) == 6
        assert min_positive_N(ChordSpectrum(3, (), 1)) == 0

    def test_positivity_after_canonical_stabilization(self):
        s = spectrum_of([-5, -1, 0, 2], n=5)
        N = min_positive_N(s)
        out = stabilize(s, N, choose_Q(5), Fraction(1, 100))
        olds = {c.degree for c in out.chords if c.id.startswith("c")}
        news = {c.degree for c in out.chords if not c.id.startswith("c")}
        assert min(olds) == N + 1
        assert min(news) >= 1

    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=6),
           st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_shift_additivity_on_old_chords(self, degrees, n1, n2):
        s = spectrum_of(degrees, bound=10, n=4)
        q = choose_Q(4)
        once = stabilize(s, n1 + n2, q, Fraction(1, 50))
        twice = stabilize(stabilize(s, n1, q, Fraction(1, 50)),
                          n2, q, Fraction(1, 90))
        for before in s.chords:
            a = next(c for c in once.chords if c.id == before.id)
            b = next(c for c in twice.chords if c.id == before.id)
            assert a.degree == b.degree == before.degree + 2 * (n1 + n2)

    @pytest.mark.parametrize("degrees, n, N, q_n, eps, sites", [
        ([-2], 3, 3, 6, Fraction(1, 10), None),
        ([0], 6, 3, 6, Fraction(1, 10), None),
        ([0, -1], 3, 2, 6, Fraction(1, 5), None),
        ([-3, 0, 2], 3, 1, 6, Fraction(1, 7), None),
        ([1, 2], 3, 1, 6, Fraction(1, 9), 3),
        ([-5, -1, 0, 2], 5, 6, 5, Fraction(1, 100), None),
    ])
    def test_output_matches_validating_constructors(self, degrees, n, N,
                                                    q_n, eps, sites):
        # stabilize builds its records without re-validating them; the
        # public constructors must accept them and build equal ones
        q = choose_Q(q_n)
        out = stabilize(spectrum_of(degrees, n=n), N, q, eps, sites=sites)
        # a second round reuses the zz ids, so its new ids get suffixed
        again = stabilize(out, 1, q, eps / 2, sites=1)
        for spectrum in (out, again):
            for c in spectrum.chords:
                assert type(c.action) is Fraction
                back = ChordRecord.from_json(c.to_json())
                assert c == back
                assert hash(c) == hash(back)
            assert ChordSpectrum.from_json(spectrum.to_json()) == spectrum

    def test_zigzag_degree_check_is_not_an_assert(self, monkeypatch):
        # the front-to-degree match is checked once per call, not per
        # record; it raises (also under python -O) if chord_degree drifts
        s = spectrum_of([0])
        monkeypatch.setattr(chords_mod, "chord_degree",
                            lambda down, up, ind: down - up + ind)
        with pytest.raises(ValueError, match="zig-zag front"):
            stabilize(s, 1, self.Q6, Fraction(1, 10))


class TestSelfIntersection:
    def test_zero_for_chosen_q(self):
        for n in range(3, 10):
            q = choose_Q(n)
            for big_n in range(0, 11):
                assert self_intersection_index(n, big_n, q).value == 0

    def test_integer_case(self):
        s2 = MorseData("S^2", 2, 2, True, (0, 2))
        idx = self_intersection_index(4, 2, s2)
        assert idx == SelfIntersectionIndex(-4, "Z")
        assert not idx.vanishes

    def test_mod2_case(self):
        s2 = MorseData("S^2", 2, 2, True, (0, 2))
        idx = self_intersection_index(5, 3, s2)
        assert idx.modulus == "Z/2"
        assert idx.value == (3 * 2) % 2 == 0
        torus_odd = MorseData("pt", 0, 1, True, (0,))
        assert self_intersection_index(5, 3, torus_odd).value == 1

    def test_nonorientable_forces_mod2(self):
        rp2 = MorseData("RP^2", 2, 1, False, (0,))
        assert self_intersection_index(4, 1, rp2).modulus == "Z/2"

    def test_sign_pattern(self):
        pt = MorseData("pt", 0, 1, True, (0,))
        signs = {n: (-1) ** (((n - 1) * (n - 2)) // 2) for n in range(2, 10)}
        assert signs == {2: 1, 3: -1, 4: -1, 5: 1, 6: 1, 7: -1, 8: -1, 9: 1}
        for n in (2, 4, 6, 8):
            assert self_intersection_index(n, 1, pt).value == signs[n]

    def test_n_bound(self):
        pt = MorseData("pt", 0, 1, True, (0,))
        with pytest.raises(ValueError):
            self_intersection_index(1, 1, pt)


class TestChooseQ:
    def test_small_cases(self):
        q3 = choose_Q(3)
        assert (q3.name, q3.dimension, q3.critical_points) == ("S^1", 1, (0, 1))
        q4 = choose_Q(4)
        assert q4.critical_points == (0, 1, 1, 2)

    def test_rejects_n2(self):
        with pytest.raises(ValueError, match="Euler characteristic"):
            choose_Q(2)
        with pytest.raises(ValueError):
            choose_Q(1)

    @given(st.integers(3, 20))
    def test_always_chi_zero_orientable(self, n):
        q = choose_Q(n)
        assert q.chi == 0 and q.orientable and q.dimension == n - 2
