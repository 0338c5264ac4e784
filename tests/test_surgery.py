"""Word enumeration, surgery orbit rules, and ADC certificate machinery."""

import hashlib
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weinkit import surgery
from weinkit.chords import ChordRecord, ChordSpectrum, choose_Q, stabilize
from weinkit.models import sample_certificate
from weinkit.serialize import SchemaError, dumps_canonical
from weinkit.surgery import (
    ADCCertificate,
    CyclicWord,
    OrbitRecord,
    OrbitSpectrum,
    Stage,
    add_surgery_chord,
    adc_check,
    belt_sphere_chords,
    canonical_rotation,
    enumerate_words,
    flexible_surgery_certificate,
    nonsimultaneous_words,
    normalize_certificate,
    orbits_after_surgery,
    rescale,
    subcritical_surgery,
)

import oracles
from cli_invoke import invoke
from test_acceptance import Budget


def spectrum_of(n, bound, *chords):
    return ChordSpectrum(
        n,
        tuple(ChordRecord(cid, deg, Fraction(act)) for cid, deg, act in chords),
        Fraction(bound))


AB_TABLE = spectrum_of(3, 4, ("a", 1, 1), ("b", 2, Fraction(3, 2)))


@st.composite
def word_alphabets(draw):
    """A spectrum of 1-5 chords and a word bound.  The ids' string order
    differs from their numeric order (c10 < c2), actions repeat, and some
    chords are not null-homotopic.  Bounds stay below 6 times the least
    action so the brute-force oracle stays small; chords may lie above
    the bound."""
    ids = draw(st.lists(st.sampled_from(["a", "b", "c2", "c10", "c9", "x"]),
                        min_size=1, max_size=5, unique=True))
    chords = tuple(
        ChordRecord(cid, draw(st.integers(-3, 4)),
                    draw(st.sampled_from([Fraction(1), Fraction(4, 3),
                                          Fraction(3, 2), Fraction(2),
                                          Fraction(5, 2)])),
                    None, draw(st.booleans()) or draw(st.booleans()))
        for cid in ids)
    bound = draw(st.sampled_from([Fraction(k, 2) for k in range(2, 12)]))
    return ChordSpectrum(3, chords, Fraction(6)), bound


@st.composite
def linear_cases(draw):
    """A complement spectrum, an auxiliary alphabet of 0-4 chords of
    positive degree (some not null-homotopic; c10 < c2 < c9 as strings) and
    two connectors.  Letter actions are at least 1 and the complement bound
    at most 11/2, so middles stay short for the brute-force oracle."""
    ids = draw(st.lists(st.sampled_from(["a", "b", "c2", "c10", "c9"]),
                        max_size=4, unique=True))
    aux = ChordSpectrum(3, tuple(
        ChordRecord(cid, draw(st.integers(1, 3)),
                    draw(st.sampled_from([Fraction(1), Fraction(4, 3),
                                          Fraction(3, 2), Fraction(2),
                                          Fraction(5, 2)])),
                    None, draw(st.booleans()))
        for cid in ids), Fraction(6))
    connectors = [
        ChordRecord(cid, draw(st.integers(1, 3)),
                    draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2),
                                          Fraction(1)])),
                    None, draw(st.booleans()) or draw(st.booleans()))
        for cid in ("in", "out")]
    bound = draw(st.sampled_from([Fraction(k, 2) for k in range(2, 12)]))
    return (spectrum_of(3, bound, ("p", 1, Fraction(1, 2))), aux,
            *connectors)


def mixed_chords(connector_in, connector_out, letters, bound):
    """(id, degree, action) of each mixed chord the brute-force oracle
    finds over letters {id: (degree, action)}, in its order."""
    base = connector_in.action + connector_out.action
    return [("mix:" + ".".join((connector_in.id,) + w + (connector_out.id,)),
             connector_in.degree + connector_out.degree
             + sum(letters[c][0] for c in w),
             base + sum(letters[c][1] for c in w))
            for w in oracles.brute_force_linear_words(
                {c: a for c, (_, a) in letters.items()}, bound - base)]


def orbit(deg, act, origin="old", contractible=True):
    return OrbitRecord(deg, Fraction(act), origin, contractible)


class TestCyclicWords:
    def test_canonical_rotation_minimal(self):
        assert canonical_rotation(("b", "a", "c")) == ("a", "c", "b")
        assert canonical_rotation(("a",)) == ("a",)
        with pytest.raises(ValueError):
            canonical_rotation(())

    def test_word_recanonicalizes(self):
        w = CyclicWord(("b", "a"), 3, Fraction(5, 2))
        assert w.letters == ("a", "b")
        assert w.label() == "a.b"
        assert len(w) == 2


class TestEnumerateWords:
    def test_two_letter_table(self):
        words = enumerate_words(AB_TABLE, 4)
        table = {w.label(): (w.degree, w.action) for w in words}
        assert table == {
            "a": (1, Fraction(1)),
            "a.a": (2, Fraction(2)),
            "a.a.a": (3, Fraction(3)),
            "b": (2, Fraction(3, 2)),
            "b.b": (4, Fraction(3)),
            "a.b": (3, Fraction(5, 2)),
            "a.a.b": (4, Fraction(7, 2)),
        }
        assert len(words) == 7

    def test_one_class_per_rotation(self):
        s = spectrum_of(3, 10, ("a", 1, 1), ("b", 1, 1))
        labels = [w.letters for w in enumerate_words(s, 4)]
        assert ("a", "b") in labels
        assert ("b", "a") not in labels
        assert len(labels) == len(set(labels))

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            enumerate_words(AB_TABLE, 0)

    def test_non_null_homotopic_rejected_or_skipped(self):
        s = ChordSpectrum(3, (
            ChordRecord("a", 1, Fraction(1)),
            ChordRecord("x", 1, Fraction(1), None, False)), Fraction(3))
        with pytest.raises(ValueError, match="null-homotopic"):
            enumerate_words(s, 3)
        words = enumerate_words(s, 3, skip_non_null_homotopic=True)
        assert all("x" not in w.letters for w in words)
        assert {w.label() for w in words} == {"a", "a.a"}

    def test_matches_brute_force_oracle(self):
        rng = random.Random(7)
        for _ in range(40):
            k = rng.randint(1, 4)
            names = ["a", "b", "c", "d"][:k]
            actions = {nm: Fraction(rng.randint(2, 12), rng.randint(1, 3))
                       for nm in names}
            # keep bound within a few multiples of the least action so the
            # product-based oracle stays small
            bound = min(Fraction(20),
                        min(actions.values()) * rng.randint(2, 7))
            s = ChordSpectrum(
                3,
                tuple(ChordRecord(nm, 1, a) for nm, a in actions.items()
                      if a < bound),
                bound)
            got = sorted(w.letters for w in enumerate_words(s, bound))
            want = oracles.brute_force_words(
                {c.id: c.action for c in s.chords}, bound)
            assert got == want

    @given(word_alphabets())
    @settings(max_examples=150, deadline=None)
    def test_records_match_brute_force_in_order(self, case):
        spectrum, bound = case
        letters = {c.id: c for c in spectrum.chords if c.null_homotopic}
        classes = oracles.brute_force_words(
            {cid: c.action for cid, c in letters.items()}, bound)
        want = [(w, sum(letters[x].degree for x in w),
                 sum(letters[x].action for x in w))
                for w in sorted(classes, key=lambda w: (len(w), w))]
        words = enumerate_words(spectrum, bound, skip_non_null_homotopic=True)
        assert [(w.letters, w.degree, w.action) for w in words] == want
        # the walk emits least rotations with exact types, unchecked
        for w in words:
            assert canonical_rotation(w.letters) == w.letters
            assert type(w.action) is Fraction and type(w.degree) is int
        # records straight from the walk equal the publicly built ones
        alphabet = ChordSpectrum(3, tuple(letters.values()), spectrum.bound)
        orbits = orbits_after_surgery(OrbitSpectrum(3, (), bound), alphabet,
                                      bound)
        assert orbits == OrbitSpectrum(3, tuple(
            OrbitRecord(deg, act, "word:" + ".".join(w), True)
            for w, deg, act in want), bound)
        belt = belt_sphere_chords(alphabet, bound)
        assert belt == ChordSpectrum(3, tuple(
            ChordRecord("w:" + ".".join(w), deg + 1, act)
            for w, deg, act in want), bound)
        for record in words + orbits.orbits + belt.chords:
            assert not hasattr(record, "__dict__")

    def test_letters_at_or_above_the_bound_are_not_words(self):
        s = spectrum_of(3, 4, ("a", 1, 1), ("b", 2, Fraction(5, 2)))
        assert [w.label() for w in enumerate_words(s, Fraction(5, 2))] == [
            "a", "a.a"]
        belt = belt_sphere_chords(s, 2)
        assert [c.id for c in belt.chords] == ["w:a"]

    def test_belt_ids_that_clash_are_rejected(self):
        # "w:a.b" names both the one-letter word "a.b" and the word a.b
        s = spectrum_of(3, 4, ("a", 1, 1), ("b", 1, 1), ("a.b", 1, 3))
        with pytest.raises(ValueError, match="duplicate chord id 'w:a.b'"):
            belt_sphere_chords(s, 4)

    def test_orbit_origins_that_clash_are_rejected(self):
        # the same two words would both be the orbit "word:a.b"
        s = spectrum_of(3, 4, ("a", 1, 1), ("b", 1, 1), ("a.b", 1, 3))
        with pytest.raises(ValueError,
                           match="duplicate orbit origin 'word:a.b'"):
            orbits_after_surgery(OrbitSpectrum(3, (), 4), s, 4)

    def test_pipeline_rejects_clashing_origins(self, tmp_path):
        s = spectrum_of(3, 4, ("a", 1, 1), ("b", 1, 1), ("a.b", 1, 3))
        with pytest.raises(ValueError, match="duplicate orbit origin"):
            flexible_surgery_certificate(tower([5]), s, 3)
        cert, chords = tmp_path / "cert.json", tmp_path / "chords.json"
        cert.write_text(json.dumps(tower([5]).to_json()))
        chords.write_text(json.dumps(s.to_json()))
        result = invoke(["surgery", "flexible", str(cert), "--n", "3",
                         "--chords", str(chords)])
        assert result.exit_code == 2
        doc = json.loads(result.stdout)
        assert doc["ok"] is False
        assert doc["error"] == "duplicate orbit origin 'word:a.b'"

    def test_three_letters_at_bound_16_pinned(self):
        s = spectrum_of(3, 16, ("a", 1, 1), ("b", 2, Fraction(3, 2)),
                        ("c", 3, 2))
        with Budget("words over a, b, c below action 16", 0.4):
            words = enumerate_words(s, 16)
        assert len(words) == 15516
        text = "\n".join(f"{w.label()} {w.degree} {w.action}" for w in words)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "ab25fbe5af8bb06e52b10eaa6700487dcabc240205eddaa94a5b0b57d55af716")


    def test_orbits_over_three_letters_at_bound_18_pinned(self):
        s = spectrum_of(3, 18, ("a", 1, 1), ("b", 2, Fraction(3, 2)),
                        ("c", 3, 2))
        with Budget("orbits of words over a, b, c below action 18", 1.7):
            out = orbits_after_surgery(OrbitSpectrum(3, (), 18), s, 18)
        assert len(out.orbits) == 62510
        text = dumps_canonical(out.to_json())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "334b263ea704e677d8e1a37d5dc44bd2383ca3ff855a7c09c5fcede451068567")


class TestBurnsideCount:
    """enumerate_words counted by degree against oracles.necklace_counts,
    a Burnside sum over the rotations that lists no word."""
    ACTIONS = (Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2),
               Fraction(2), Fraction(5, 2))

    @staticmethod
    def histogram(letters, bound):
        """{degree: words} of enumerate_words over letters {id: (degree,
        action)} below bound."""
        top = max(action for _, action in letters.values()) + 1
        spectrum = ChordSpectrum(3, tuple(
            ChordRecord(cid, deg, action)
            for cid, (deg, action) in letters.items()), top)
        hist = {}
        for w in enumerate_words(spectrum, bound):
            hist[w.degree] = hist.get(w.degree, 0) + 1
        return hist

    def test_degree_histograms_match(self):
        rng = random.Random(32)
        for case in range(300):
            letters = {cid: (rng.randint(-3, 4), rng.choice(self.ACTIONS))
                       for cid in "abcd"[:rng.randint(1, 4)]}
            least = min(action for _, action in letters.values())
            bound = least * Fraction(rng.randint(2, 12), 2)
            assert self.histogram(letters, bound) == oracles.necklace_counts(
                letters, bound), (case, letters, bound)

    def test_a_count_past_brute_force(self):
        # words of up to 15 letters: 4^15 sequences for a brute-force list
        letters = {"a": (1, Fraction(1, 2)), "b": (-2, Fraction(2, 3)),
                   "c": (3, Fraction(3, 2)), "d": (0, Fraction(5, 2))}
        hist = self.histogram(letters, 8)
        assert sum(hist.values()) >= 3000
        assert hist == oracles.necklace_counts(letters, 8)


class TestOrbitRecords:
    def test_origin_vocabulary(self):
        orbit(2, 1, "old")
        orbit(2, 1, "word:a.b")
        orbit(2, 1, "belt:3")
        orbit(2, 1, "belt:10")
        for bad in ("", "word:", "belt:0", "belt:x", "new", "belt:",
                    "belt: 1", "belt:+1", "belt:01", "belt:1_0", "belt:\u0663"):
            with pytest.raises(ValueError):
                orbit(2, 1, bad)

    def test_action_positive(self):
        with pytest.raises(ValueError, match="positive"):
            orbit(2, 0)

    def test_spectrum_validates_window(self):
        with pytest.raises(ValueError, match="bound"):
            OrbitSpectrum(3, (orbit(2, 5),), Fraction(5))
        with pytest.raises(ValueError, match=">= 1"):
            OrbitSpectrum(0, (), Fraction(1))

    @pytest.mark.parametrize("doc", [
        {"schema": 1, "n": 3, "bound": "2",
         "orbits": [{"degree": 1.5, "action": "1"}]},
        {"schema": 1, "n": "3/1", "bound": "2", "orbits": []}])
    def test_from_json_rejects_non_integers(self, doc):
        with pytest.raises(SchemaError, match="must be an integer"):
            OrbitSpectrum.from_json(doc)

    @pytest.mark.parametrize("doc, message", [
        ({"schema": 1, "n": 3, "bound": "2", "generic": "false",
          "orbits": []}, "generic must be true or false"),
        ({"schema": 1, "n": 3, "bound": "2",
          "orbits": [{"degree": 1, "action": "1", "contractible": 0}]},
         "contractible must be true or false")])
    def test_from_json_rejects_non_booleans(self, doc, message):
        with pytest.raises(SchemaError, match=message):
            OrbitSpectrum.from_json(doc)

    @pytest.mark.parametrize("origin", [None, 1, ["old"]])
    def test_from_json_rejects_non_string_origin(self, origin):
        # an origin of null used to read as "None"
        doc = {"schema": 1, "n": 3, "bound": "2",
               "orbits": [{"degree": 1, "action": "1", "origin": origin}]}
        with pytest.raises(SchemaError, match="origin must be a string"):
            OrbitSpectrum.from_json(doc)

    @pytest.mark.parametrize("orbits", ["", {}])
    def test_from_json_rejects_non_list_orbits(self, orbits):
        with pytest.raises(SchemaError, match="orbits must be a list"):
            OrbitSpectrum.from_json({"schema": 1, "n": 3, "bound": "2",
                                     "orbits": orbits})

    def test_json_roundtrip(self):
        s = OrbitSpectrum(4, (orbit(3, Fraction(1, 3), "belt:2"),
                              orbit(1, 2, "word:a", False)),
                          Fraction(7, 2), generic=True)
        back = OrbitSpectrum.from_json(json.loads(json.dumps(s.to_json())))
        assert back == s


class TestOrbitsAfterSurgery:
    def test_word_orbit_grading(self):
        old = OrbitSpectrum(3, (orbit(5, Fraction(1, 2)),), Fraction(4))
        out = orbits_after_surgery(old, AB_TABLE, 4)
        by_origin = {r.origin: r for r in out.orbits}
        assert by_origin["old"].degree == 5
        # degree of a word orbit is word degree + n - 3, here n = 3
        for w in enumerate_words(AB_TABLE, 4):
            r = by_origin["word:" + w.label()]
            assert r.degree == w.degree
            assert r.action == w.action
            assert r.contractible
        assert len(out.orbits) == 1 + 7

    def test_shift_for_larger_n(self):
        s = spectrum_of(5, 3, ("c", 2, 1))
        old = OrbitSpectrum(5, (), Fraction(3))
        out = orbits_after_surgery(old, s, 3)
        # words c, cc with degrees 2, 4 shifted by n - 3 = 2
        assert sorted(r.degree for r in out.orbits) == [4, 6]

    def test_old_orbits_filtered_to_window(self):
        old = OrbitSpectrum(3, (orbit(1, 1), orbit(2, 3)), Fraction(4))
        out = orbits_after_surgery(old, spectrum_of(3, 4), 2)
        assert [r.degree for r in out.orbits] == [1]
        assert out.bound == 2

    def test_window_cannot_exceed_known_orbits(self):
        old = OrbitSpectrum(3, (), Fraction(2))
        with pytest.raises(ValueError, match="window"):
            orbits_after_surgery(old, spectrum_of(3, 4), 4)

    def test_half_dimension_checks(self):
        old = OrbitSpectrum(3, (), Fraction(2))
        with pytest.raises(ValueError, match="differ"):
            orbits_after_surgery(old, spectrum_of(4, 2), 2)
        with pytest.raises(ValueError, match="n >= 2"):
            orbits_after_surgery(OrbitSpectrum(1, (), Fraction(2)),
                                 spectrum_of(1, 2), 2)


class TestSubcritical:
    def test_belt_iterate_degrees(self):
        old = OrbitSpectrum(3, (), Fraction(10))
        out = subcritical_surgery(old, 3, 1, 3, Fraction(1, 2))
        assert [(r.degree, r.action, r.origin) for r in out.orbits] == [
            (3, Fraction(1, 2), "belt:1"),
            (5, Fraction(1), "belt:2"),
            (7, Fraction(3, 2), "belt:3"),
        ]
        assert all(r.contractible for r in out.orbits)

    def test_degrees_always_positive(self):
        for n in range(2, 21):
            for k in range(1, n):
                for j in range(1, 51):
                    assert 2 * n - k - 4 + 2 * j > 0

    def test_index_two_needs_hypotheses(self):
        old = OrbitSpectrum(4, (), Fraction(10))
        with pytest.raises(ValueError, match="pi_1"):
            subcritical_surgery(old, 4, 2, 1, 1)
        out = subcritical_surgery(old, 4, 2, 1, 1, hypotheses_asserted=True)
        assert out.orbits[0].degree == 2 * 4 - 2 - 4 + 2

    def test_range_and_shrinking_errors(self):
        old = OrbitSpectrum(3, (), Fraction(2))
        with pytest.raises(ValueError, match="subcritical"):
            subcritical_surgery(old, 3, 3, 1, 1)
        with pytest.raises(ValueError, match="shrink"):
            subcritical_surgery(old, 3, 1, 4, 1)
        with pytest.raises(ValueError, match="match"):
            subcritical_surgery(old, 4, 1, 1, 1)
        assert subcritical_surgery(old, 3, 1, 0, 1) == old


class TestLegendrianRules:
    def test_ambient_adds_one_chord(self):
        s = spectrum_of(5, 4, ("a", 2, 1))
        out = add_surgery_chord(s, 2)
        assert len(out.chords) == 2
        new = out.chords[-1]
        assert new.degree == 5 - 2 - 1
        assert 0 < new.action < s.bound
        assert new.id == "surg"

    def test_critical_index_rejected(self):
        s = spectrum_of(3, 4, ("a", 2, 1))
        with pytest.raises(ValueError, match="degree-0"):
            add_surgery_chord(s, 2)
        with pytest.raises(ValueError):
            add_surgery_chord(s, 0)

    def test_surg_id_collision_suffixed(self):
        s = spectrum_of(5, 4, ("surg", 2, 1))
        out = add_surgery_chord(s, 1, Fraction(1, 2))
        assert out.chords[-1].id == "surg_"

    def test_belt_sphere_word_chords(self):
        s = spectrum_of(3, Fraction(5, 2), ("c", 1, 1))
        out = belt_sphere_chords(s)
        assert [(c.id, c.degree, c.action) for c in out.chords] == [
            ("w:c", 2, Fraction(1)),
            ("w:c.c", 3, Fraction(2)),
        ]

    def test_belt_window_capped(self):
        s = spectrum_of(3, 2, ("c", 1, 1))
        with pytest.raises(ValueError, match="window"):
            belt_sphere_chords(s, 3)


class TestNonsimultaneous:
    def setup_method(self):
        self.base = spectrum_of(3, 6, ("p", 1, 1))
        self.a = ChordRecord("in", 1, Fraction(1, 2))
        self.b = ChordRecord("out", 2, Fraction(1, 2))
        self.short_base = spectrum_of(3, 3, ("p", 1, 1))

    def test_mixed_words_with_positive_alphabet(self):
        aux = spectrum_of(3, 6, ("c", 1, 2))
        out = nonsimultaneous_words(self.base, aux, self.a, self.b)
        mixed = [c for c in out.chords if c.id.startswith("mix:")]
        # middles of length 0, 1, 2: actions 1, 3, 5 all below bound 6
        assert [(c.id, c.degree, c.action) for c in mixed] == [
            ("mix:in.out", 3, Fraction(1)),
            ("mix:in.c.out", 4, Fraction(3)),
            ("mix:in.c.c.out", 5, Fraction(5)),
        ]
        assert out.chords[0].id == "p"

    def test_connector_degrees_must_be_positive(self):
        aux = spectrum_of(3, 6, ("c", 1, 2))
        zero = ChordRecord("in", 1, Fraction(1, 2), (2, 0, 0))
        bad = ChordRecord("bad", 0, Fraction(1, 2))
        with pytest.raises(ValueError, match="stabilize the complement"):
            nonsimultaneous_words(self.base, aux, bad, self.b)
        with pytest.raises(ValueError, match="connector_out"):
            nonsimultaneous_words(self.base, aux, zero, bad)

    def test_auxiliary_alphabet_stabilized(self):
        aux = spectrum_of(3, 3, ("c", -1, Fraction(3, 2)))
        out = nonsimultaneous_words(self.short_base, aux, self.a, self.b,
                                    zigzag_action=Fraction(3, 2))
        mixed = [c for c in out.chords if c.id.startswith("mix:")]
        assert mixed, "stabilization must leave usable middles"
        assert all(c.degree > 0 for c in mixed)
        assert any("zz" in c.id for c in mixed)
        # original degree -1 letter appears shifted by 2N = 4, so the word
        # in.c.out carries degree 3 + 3, not 3 - 1
        by_id = {c.id: c.degree for c in mixed}
        assert by_id["mix:in.c.out"] == 6

    @given(linear_cases())
    @settings(max_examples=150, deadline=None)
    def test_mixed_chords_match_brute_force_in_order(self, case):
        s_minus, aux, x, y = case
        letters = {c.id: (c.degree, c.action) for c in aux.chords}
        out = nonsimultaneous_words(s_minus, aux, x, y)
        kept = len(s_minus.chords)
        assert out.chords[:kept] == s_minus.chords
        mixed = out.chords[kept:]
        assert [(c.id, c.degree, c.action) for c in mixed] == mixed_chords(
            x, y, letters, s_minus.bound)
        for c in mixed:
            assert c.front is None and type(c.action) is Fraction
            assert c.null_homotopic == (x.null_homotopic and y.null_homotopic)

    def test_stabilized_alphabet_matches_brute_force(self):
        # degree 0 takes one zig-zag: c rises by 2, and its one site gains
        # two chords per critical point of S^1, of degree 1 + ind and
        # action below the zig-zag action 1
        aux = spectrum_of(3, 3, ("c", 0, Fraction(1, 2)))
        x = ChordRecord("in", 1, Fraction(1, 4))
        y = ChordRecord("out", 2, Fraction(1, 4))
        out = nonsimultaneous_words(spectrum_of(3, Fraction(3, 2)), aux, x, y,
                                    zigzag_action=Fraction(1))
        stabilized = {"c": (2, Fraction(1, 2)), "zz1": (1, Fraction(1, 5)),
                      "zz2": (1, Fraction(2, 5)), "zz3": (2, Fraction(3, 5)),
                      "zz4": (2, Fraction(4, 5))}
        want = mixed_chords(x, y, stabilized, Fraction(3, 2))
        assert len(want) == 24
        assert [(c.id, c.degree, c.action) for c in out.chords] == want

    def test_half_dimension_mismatch(self):
        with pytest.raises(ValueError, match="differ"):
            nonsimultaneous_words(self.base, spectrum_of(4, 6), self.a, self.b)

    def test_mixed_ids_that_clash_are_rejected(self):
        # the one-letter middle "a.b" and the middle a, b both spell
        # mix:x.a.b.y; the second used to become mix:x.a.b.y_
        aux = spectrum_of(3, 6, ("a", 1, 1), ("b", 1, 1), ("a.b", 1, 3))
        x = ChordRecord("x", 1, Fraction(1, 2))
        y = ChordRecord("y", 1, Fraction(1, 2))
        with pytest.raises(ValueError,
                           match="duplicate chord id 'mix:x.a.b.y'"):
            nonsimultaneous_words(spectrum_of(3, 6), aux, x, y)

    def test_mixed_id_that_clashes_with_an_old_chord_is_rejected(self):
        base = spectrum_of(3, 6, ("mix:in.out", 1, 1))
        with pytest.raises(ValueError, match="duplicate chord id 'mix:in.out'"):
            nonsimultaneous_words(base, spectrum_of(3, 6), self.a, self.b)


class TestRescale:
    def test_chord_spectrum_scaling(self):
        out = rescale(AB_TABLE, Fraction(3, 2))
        assert out.bound == 6
        assert [(c.degree, c.action) for c in out.chords] == [
            (1, Fraction(3, 2)), (2, Fraction(9, 4))]

    def test_orbit_spectrum_scaling(self):
        s = OrbitSpectrum(3, (orbit(2, 1, "belt:1"),), Fraction(2))
        out = rescale(s, 2)
        assert out.orbits[0].action == 2
        assert out.orbits[0].degree == 2
        assert out.bound == 4

    def test_group_action(self):
        assert rescale(AB_TABLE, 1) == AB_TABLE
        two_step = rescale(rescale(AB_TABLE, Fraction(2, 3)), Fraction(3, 2))
        assert two_step == AB_TABLE

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="positive"):
            rescale(AB_TABLE, 0)
        with pytest.raises(TypeError):
            rescale("spectrum", 2)


positive_rationals = st.builds(
    Fraction, st.integers(min_value=1, max_value=10**12),
    st.integers(min_value=1, max_value=10**6))
factors = st.integers(min_value=1, max_value=1000)


def same_record(built, want):
    """built holds want's value in every observable way, and holds its
    action in lowest terms."""
    assert built == want and hash(built) == hash(want)
    assert repr(built) == repr(want)
    if hasattr(want, "to_json"):
        assert built.to_json() == want.to_json()
    action = built.action
    assert type(action) is Fraction and action == want.action
    assert built._action == (action.numerator, action.denominator)


class TestOneRepresentation:
    """Every path that makes a record with an action makes the record the
    reduced Fraction makes."""

    @settings(max_examples=60, deadline=None)
    @given(positive_rationals, factors)
    def test_constructor_spellings_and_json(self, r, k):
        want = ChordRecord("c", 1, r)
        spelled = f"{r.numerator * k}/{r.denominator * k}"
        same_record(ChordRecord("c", 1, spelled), want)
        same_record(ChordRecord.from_json(
            {"id": "c", "degree": 1, "action": spelled}), want)
        if r.denominator == 1:
            same_record(ChordRecord("c", 1, r.numerator), want)
        same_record(OrbitRecord(2, spelled), OrbitRecord(2, r))
        same_record(OrbitRecord.from_json({"degree": 2, "action": spelled}),
                    OrbitRecord(2, r))
        same_record(CyclicWord(("a",), 1, spelled), CyclicWord(("a",), 1, r))

    @settings(max_examples=60, deadline=None)
    @given(positive_rationals, positive_rationals)
    def test_rescale(self, r, s):
        chords = ChordSpectrum(3, (ChordRecord("c", 1, r / s),), r / s + 1)
        out = rescale(chords, s)
        same_record(out.chords[0], ChordRecord("c", 1, r))
        assert out.bound == r + s and out._bound == (
            (r + s).numerator, (r + s).denominator)
        orbits = OrbitSpectrum(3, (OrbitRecord(2, r / s),), r / s + 1)
        same_record(rescale(orbits, s).orbits[0], OrbitRecord(2, r))

    @settings(max_examples=60, deadline=None)
    @given(positive_rationals, positive_rationals, positive_rationals)
    def test_rescale_composes(self, r, s, t):
        for x in (ChordSpectrum(3, (ChordRecord("c", 1, r),
                                    ChordRecord("d", 2, r / 2)), r + 1),
                  OrbitSpectrum(3, (OrbitRecord(2, r),), r + 1)):
            assert rescale(rescale(x, s), t) == rescale(x, s * t)

    @settings(max_examples=60, deadline=None)
    @given(positive_rationals)
    def test_stabilize_zigzag_chords(self, r):
        # one site and S^1: four zig-zag chords of action eps * t / 5
        spectrum = ChordSpectrum(3, (ChordRecord("c", 0, 1),), 5 * r + 1)
        out = stabilize(spectrum, 1, choose_Q(3), 5 * r)
        zigzags = [c for c in out.chords if c.id.startswith("zz")]
        assert [c.id for c in zigzags] == ["zz1", "zz2", "zz3", "zz4"]
        for t, c in enumerate(zigzags, start=1):
            ind = 0 if t <= 2 else 1
            same_record(c, ChordRecord(f"zz{t}", 1 + ind, r * t, (2, 0, ind)))

    @settings(max_examples=60, deadline=None)
    @given(positive_rationals, st.integers(min_value=1, max_value=40),
           st.integers(min_value=1, max_value=3))
    def test_stabilize_zigzag_actions_in_lowest_terms(self, eps, N, sites):
        # 4 N sites chords of action eps * t / (total + 1): many totals, so
        # many common denominators and divisors
        spectrum = ChordSpectrum(3, (ChordRecord("c", 0, 1),), eps + 2)
        out = stabilize(spectrum, N, choose_Q(3), eps, sites)
        zigzags = [c for c in out.chords if c.id.startswith("zz")]
        total = len(zigzags)
        assert total == 4 * N * sites
        for t, c in enumerate(zigzags, start=1):
            want = eps * t / (total + 1)
            assert c._action == (want.numerator, want.denominator)

    @pytest.mark.parametrize("eps", [Fraction(1, 10 ** 14),
                                     Fraction(1, 10 ** 30),
                                     Fraction(3, 2 ** 89 - 1)])
    @pytest.mark.parametrize("N, sites", [(1, 0), (1, 1), (3, 2)])
    def test_stabilize_with_a_huge_eps_denominator(self, eps, N, sites):
        # the zig-zag actions cost a step per chord at most, however many
        # divisors the denominator of eps has or however large it is
        spectrum = ChordSpectrum(3, (ChordRecord("c", 0, 1),), 2)
        with Budget(f"stabilize at eps = {eps}", 0.5):
            out = stabilize(spectrum, N, choose_Q(3), eps, sites)
        zigzags = out.chords[1:]
        assert len(zigzags) == 4 * N * sites
        for t, c in enumerate(zigzags, start=1):
            want = eps * t / (len(zigzags) + 1)
            assert c._action == (want.numerator, want.denominator)

    @settings(max_examples=60, deadline=None)
    @given(positive_rationals)
    def test_word_records(self, r):
        chords = ChordSpectrum(3, (ChordRecord("a", 1, r),), 4 * r)
        bound = Fraction(5, 2) * r
        words = enumerate_words(chords, bound)
        assert len(words) == 2
        for m, w in enumerate(words, start=1):
            same_record(w, CyclicWord(("a",) * m, m, m * r))
        old = OrbitSpectrum(3, (), 3 * r)
        for m, o in enumerate(orbits_after_surgery(old, chords, bound).orbits,
                              start=1):
            same_record(o, OrbitRecord(m, m * r, "word:" + ".".join("a" * m)))
        for m, c in enumerate(belt_sphere_chords(chords, bound).chords,
                              start=1):
            same_record(c, ChordRecord("w:" + ".".join("a" * m), m + 1, m * r))

    @settings(max_examples=60, deadline=None)
    @given(positive_rationals)
    def test_nonsimultaneous_words(self, r):
        s_minus = ChordSpectrum(3, (), 3 * r)
        aux = ChordSpectrum(3, (ChordRecord("a", 1, r),), 3 * r)
        out = nonsimultaneous_words(s_minus, aux, ChordRecord("x", 1, r / 3),
                                    ChordRecord("y", 1, r / 6))
        assert [c.id for c in out.chords] == ["mix:x.y", "mix:x.a.y",
                                              "mix:x.a.a.y"]
        for m, c in enumerate(out.chords):
            same_record(c, ChordRecord(c.id, 2 + m, r / 2 + m * r, None))

    def test_normalize_and_from_json_build_no_fraction(self, monkeypatch):
        cert = sample_certificate(3, 3)
        doc, eps = cert.to_json(), Fraction(1, 2)
        built = []
        real = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return real(cls, *args, **kwargs)
        monkeypatch.setattr(Fraction, "__new__", counting)
        # 3.12 on, arithmetic builds through here instead of __new__
        if hasattr(Fraction, "_from_coprime_ints"):
            monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(
                lambda cls, p, q: built.append((p, q)) or counting(cls, p, q)))
        out = normalize_certificate(cert, eps)
        back = ADCCertificate.from_json(doc)
        assert built == []
        # the counter counts: reading a scale builds its Fraction
        assert out.stages[0].scale == Fraction(1, 2) and built
        assert back == cert

    # a chord with a front and one not null-homotopic, below bound 3
    CHORDS = ChordSpectrum(3, (
        ChordRecord("a", 0, Fraction(1, 2), (1, 0, 0)),
        ChordRecord("b", 2, Fraction(2, 3), null_homotopic=False)), 3)
    ORBITS = OrbitSpectrum(3, (orbit(1, Fraction(5, 4)),
                               orbit(0, 2, "belt:1", False)), 3, False)

    @pytest.mark.parametrize("build", [
        lambda s: rescale(s.CHORDS, Fraction(6, 7)),
        lambda s: rescale(s.ORBITS, Fraction(6, 7)),
        lambda s: stabilize(s.CHORDS, 2, choose_Q(3)),
        lambda s: belt_sphere_chords(spectrum_of(3, 3, ("a", 1, "1/2")), 2),
        lambda s: orbits_after_surgery(s.ORBITS, spectrum_of(
            3, 3, ("a", 1, "1/2"), ("b", 2, "2/3")), Fraction(3, 2)),
        lambda s: subcritical_surgery(s.ORBITS, 3, 1, 4, Fraction(2, 3)),
        lambda s: add_surgery_chord(s.CHORDS, 1),
    ], ids=["rescale-chords", "rescale-orbits", "stabilize", "belt",
            "orbits-after-surgery", "subcritical", "surgery-chord"])
    def test_trusted_builds_equal_their_checked_round_trip(self, build):
        # these records skip their constructors; the constructors, run by
        # from_json, must accept them and store the same values
        out = build(self)
        back = type(out).from_json(out.to_json())
        assert back == out and hash(back) == hash(out)
        records = out.chords if isinstance(out, ChordSpectrum) else out.orbits
        assert records
        for r in records:
            assert type(r).from_json(r.to_json()) == r


def stage(scale, bound, orbits=(), n=3, generic=True):
    return Stage(Fraction(scale), Fraction(bound),
                 OrbitSpectrum(n, orbits, Fraction(bound), generic))


class TestCertificates:
    def test_stage_bound_must_match_spectrum(self):
        with pytest.raises(ValueError, match="bound"):
            Stage(Fraction(1), Fraction(2), OrbitSpectrum(3, (), Fraction(3)))

    def test_mixed_half_dimensions_rejected(self):
        with pytest.raises(ValueError, match="half-dimensions"):
            ADCCertificate((stage(1, 1, n=3), stage(1, 2, n=4)))

    def test_empty_certificate_passes(self):
        v = adc_check(ADCCertificate(()))
        assert v.fired and bool(v)

    def test_valid_two_stage(self):
        cert = ADCCertificate((
            stage(1, 1, (orbit(2, Fraction(1, 2)),)),
            stage(Fraction(1, 2), 3, (orbit(1, 2),)),
        ))
        v = adc_check(cert)
        assert v.fired
        assert v.witness == {"stages": 2}

    def test_scale_increase_caught(self):
        cert = ADCCertificate((stage(1, 1), stage(2, 2)))
        v = adc_check(cert)
        assert not v.fired
        assert v.witness["violation"] == "scale increased"
        assert v.witness["stage"] == 2

    def test_bound_must_strictly_increase(self):
        cert = ADCCertificate((stage(1, 2), stage(1, 2)))
        v = adc_check(cert)
        assert not v.fired
        assert v.witness["violation"] == "bound not strictly increasing"

    def test_nonpositive_contractible_orbit_caught(self):
        cert = ADCCertificate((
            stage(1, 2, (orbit(1, 1), orbit(0, Fraction(3, 2), "belt:1"))),))
        v = adc_check(cert)
        assert not v.fired
        assert v.witness == {
            "stage": 1, "violation": "nonpositive contractible orbit",
            "record": 1, "degree": 0, "action": "3/2", "origin": "belt:1"}

    def test_noncontractible_orbits_exempt(self):
        cert = ADCCertificate((
            stage(1, 2, (orbit(-3, 1, "old", contractible=False),)),))
        assert adc_check(cert).fired

    def test_first_violation_wins(self):
        cert = ADCCertificate((
            stage(1, 2, (orbit(0, 1),)),
            stage(2, 1),
        ))
        v = adc_check(cert)
        assert v.witness["stage"] == 1
        assert v.witness["violation"] == "nonpositive contractible orbit"

    def test_json_roundtrip(self):
        cert = ADCCertificate((
            stage(1, 1, (orbit(2, Fraction(1, 2), "word:a"),)),
            stage(Fraction(1, 3), 4, (orbit(3, 2, "belt:2"),)),
        ))
        back = ADCCertificate.from_json(json.loads(json.dumps(cert.to_json())))
        assert back == cert

    @pytest.mark.parametrize("stages", ["", {}])
    def test_from_json_rejects_non_list_stages(self, stages):
        # "stages": "" used to read as an empty, vacuously valid certificate
        with pytest.raises(SchemaError, match="stages must be a list"):
            ADCCertificate.from_json({"schema": 1, "stages": stages})

    @pytest.mark.parametrize("stages, message", [
        ([5], "Stage: expected a JSON object"),
        ([{"scale": "1", "bound": "2"}], "Stage: missing key 'spectrum'"),
        ([{"scale": "1", "bound": "3",
           "spectrum": OrbitSpectrum(3, (), 2).to_json()}],
         "Stage: stage bound 3 != spectrum bound 2")])
    def test_from_json_prefixes_every_nested_error(self, stages, message):
        # a stage 5 used to read "Stage: 'int' object is not subscriptable",
        # and a bound mismatch carried no prefix at all
        with pytest.raises(SchemaError, match=f"^ADCCertificate: {message}$"):
            ADCCertificate.from_json({"schema": 1, "stages": stages})


class TestNormalize:
    def test_single_stage_unchanged(self):
        cert = ADCCertificate((stage(1, 5, (orbit(2, 1),)),))
        assert normalize_certificate(cert, Fraction(1, 2)) == cert

    def test_geometric_sharpening(self):
        cert = ADCCertificate(tuple(
            stage(Fraction(1, 10 ** i), 10 ** i,
                  (orbit(2, Fraction(2 * 10 ** i - 1, 2)),))
            for i in range(4)))
        out = normalize_certificate(cert, Fraction(1, 2))
        assert [st.bound for st in out.stages] == [
            Fraction(1, 2), Fraction(10, 4), Fraction(100, 8), Fraction(1000, 16)]
        assert [st.scale for st in out.stages] == [
            Fraction(1, 2), Fraction(1, 40), Fraction(1, 800), Fraction(1, 16000)]
        for a, b in zip(out.stages, out.stages[1:]):
            assert b.scale <= a.scale / 2
            assert b.bound >= 2 * a.bound
        assert adc_check(out).fired

    def test_sparse_bounds_dropped(self):
        cert = ADCCertificate((stage(1, 1), stage(Fraction(1, 2), 2),
                               stage(Fraction(1, 4), 16)))
        out = normalize_certificate(cert, Fraction(1, 2))
        # stage with bound 2 misses the 1/eps^2 = 4 growth and is skipped
        assert [st.bound for st in out.stages] == [Fraction(1, 2), Fraction(4)]

    def test_too_short_error(self):
        cert = ADCCertificate((stage(1, 1), stage(1, 2)))
        with pytest.raises(ValueError, match="too short"):
            normalize_certificate(cert, Fraction(1, 2))

    def test_rejects_invalid_input(self):
        cert = ADCCertificate((stage(1, 2), stage(2, 3)))
        with pytest.raises(ValueError, match="fails"):
            normalize_certificate(cert, Fraction(1, 2))

    def test_eps_range(self):
        cert = ADCCertificate((stage(1, 1),))
        for eps in (0, 1, 2, -1):
            with pytest.raises(ValueError, match="eps"):
                normalize_certificate(cert, eps)

    def test_output_gate(self, planting_rescale):
        cert = ADCCertificate((stage(1, 1), stage(Fraction(1, 2), 4)))
        message = f"normalize postcondition failed: {planted_witness('1/4')}"
        with pytest.raises(AssertionError, match=re.escape(message)):
            normalize_certificate(cert, Fraction(1, 2))


@pytest.fixture
def planting_rescale(monkeypatch):
    """rescale that also plants a degree-0 contractible orbit at half the
    new bound, so every certificate built from its output fails adc_check."""
    real = surgery.rescale

    def planted(x, s):
        out = real(x, s)
        return OrbitSpectrum(out.n, out.orbits + (orbit(0, out.bound / 2),),
                             out.bound, out.generic)
    monkeypatch.setattr(surgery, "rescale", planted)


def planted_witness(action):
    return {"stage": 1, "violation": "nonpositive contractible orbit",
            "record": 0, "degree": 0, "action": action, "origin": "old"}


def tower(bounds, n=3, orbits_for=None):
    stages = []
    for i, b in enumerate(bounds):
        orbs = orbits_for(i, b) if orbits_for else ()
        stages.append(stage(Fraction(1, 2 ** i), b, orbs, n=n))
    return ADCCertificate(tuple(stages))


class TestFlexiblePipeline:
    def test_requires_n_at_least_three(self):
        with pytest.raises(ValueError, match="n >= 3"):
            flexible_surgery_certificate(ADCCertificate(()), None, 2)

    def test_rejects_invalid_input_certificate(self):
        bad = ADCCertificate((stage(1, 5, (orbit(0, 1),)),))
        with pytest.raises(ValueError, match="fails"):
            flexible_surgery_certificate(bad, None, 3)

    def test_unsatisfiable_bounds(self):
        low = tower([1, 2, 3])
        with pytest.raises(ValueError, match="unsatisfiable"):
            flexible_surgery_certificate(low, None, 3)

    def test_empty_chords_pure_rescale(self):
        cert = tower([5, 40, 200],
                     orbits_for=lambda i, b: (orbit(2, Fraction(b, 2)),))
        out = flexible_surgery_certificate(cert, None, 3)
        assert [st.bound for st in out.stages] == [1, 2, 3]
        # windows 4, 32, 192; orbit actions b/2 = 5/2, 20, 100 survive them
        assert [len(st.spectrum.orbits) for st in out.stages] == [1, 1, 1]
        assert out.stages[0].spectrum.orbits[0].action == Fraction(5, 8)
        assert adc_check(out).fired

    def test_positive_alphabet_word_orbits(self):
        cert = tower([5, 40])
        chords = spectrum_of(3, 40, ("a", 1, 3))
        out = flexible_surgery_certificate(cert, chords, 3)
        first = out.stages[0].spectrum
        # window 4 sees only the single-letter word, degree 1 + 0
        assert [(r.degree, r.origin) for r in first.orbits] == [(1, "word:a")]
        second = out.stages[1].spectrum
        assert {r.origin for r in second.orbits} == {
            "word:a", "word:a.a", "word:a.a.a",
            "word:a.a.a.a", "word:a.a.a.a.a",
            "word:a.a.a.a.a.a", "word:a.a.a.a.a.a.a",
            "word:a.a.a.a.a.a.a.a", "word:a.a.a.a.a.a.a.a.a",
            "word:a.a.a.a.a.a.a.a.a.a"}
        assert adc_check(out).fired

    def test_nonpositive_alphabet_stabilized(self):
        cert = tower([5])
        chords = spectrum_of(3, 5, ("z", 0, 3))
        # a chunky zig-zag budget keeps the stabilized word count small
        out = flexible_surgery_certificate(cert, chords, 3,
                                           zigzag_action=Fraction(7, 2))
        assert adc_check(out).fired
        assert all(r.degree > 0 for st in out.stages
                   for r in st.spectrum.orbits)
        assert any(r.origin.startswith("word:zz")
                   for r in out.stages[0].spectrum.orbits)
        # z itself shifted to degree 2 and kept (action 3 < window 4)
        assert any(r.origin == "word:z" and r.degree == 2
                   for r in out.stages[0].spectrum.orbits)

    def test_insufficient_chord_window_rejected(self):
        cert = tower([5])
        chords = spectrum_of(3, 2, ("a", 1, 1))
        with pytest.raises(ValueError, match="chord data"):
            flexible_surgery_certificate(cert, chords, 3)

    def test_per_stage_chord_list(self):
        cert = tower([5, 40])
        per_stage = [None, spectrum_of(3, 40, ("a", 2, 20))]
        out = flexible_surgery_certificate(cert, per_stage, 3)
        assert [len(st.spectrum.orbits) for st in out.stages] == [0, 1]
        with pytest.raises(ValueError, match="per stage"):
            flexible_surgery_certificate(cert, [None], 3)

    def test_scales_divided_by_powers_of_four(self):
        cert = tower([5, 40, 200])
        out = flexible_surgery_certificate(cert, None, 3)
        assert out.stages[0].scale == Fraction(1, 1) / 4
        assert out.stages[1].scale == Fraction(1, 2) / 16

    def test_output_gate(self, planting_rescale):
        message = f"pipeline postcondition failed: {planted_witness('1/2')}"
        with pytest.raises(AssertionError, match=re.escape(message)):
            flexible_surgery_certificate(tower([5]), None, 3)


@st.composite
def valid_certificates(draw):
    n = draw(st.integers(min_value=3, max_value=5))
    count = draw(st.integers(min_value=1, max_value=4))
    bounds = draw(st.lists(st.integers(min_value=1, max_value=50),
                           min_size=count, max_size=count, unique=True))
    bounds.sort()
    scales = sorted(draw(st.lists(st.integers(min_value=1, max_value=100),
                                  min_size=count, max_size=count)),
                    reverse=True)
    stages = []
    for sc, b in zip(scales, bounds):
        orbs = tuple(
            OrbitRecord(draw(st.integers(min_value=1, max_value=9)),
                        Fraction(draw(st.integers(min_value=1, max_value=4 * b - 1)), 4),
                        "old", True)
            for _ in range(draw(st.integers(min_value=0, max_value=3))))
        stages.append(Stage(Fraction(sc), Fraction(b),
                            OrbitSpectrum(n, orbs, Fraction(b))))
    return ADCCertificate(tuple(stages))


class TestProperties:
    @given(valid_certificates())
    @settings(max_examples=60, deadline=None)
    def test_generated_certificates_pass(self, cert):
        assert adc_check(cert).fired

    @given(valid_certificates(), st.integers(min_value=2, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_normalize_output_relations(self, cert, q):
        eps = Fraction(1, q)
        try:
            out = normalize_certificate(cert, eps)
        except ValueError:
            return
        assert adc_check(out).fired
        for a, b in zip(out.stages, out.stages[1:]):
            assert b.scale <= eps * a.scale
            assert b.bound >= a.bound / eps

    @given(valid_certificates())
    @settings(max_examples=60, deadline=None)
    def test_flexible_output_bounds_exact(self, cert):
        try:
            out = flexible_surgery_certificate(cert, None, cert.n)
        except ValueError:
            return
        assert [st.bound for st in out.stages] == \
            [Fraction(i) for i in range(1, len(out.stages) + 1)]
        assert adc_check(out).fired

    @given(st.lists(st.tuples(st.integers(min_value=-3, max_value=5),
                              st.integers(min_value=8, max_value=30)),
                    min_size=0, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_rescale_preserves_word_count(self, raw):
        chords = tuple(
            ChordRecord(f"c{i}", deg, Fraction(num, 4))
            for i, (deg, num) in enumerate(raw) if Fraction(num, 4) < 8)
        s = ChordSpectrum(3, chords, Fraction(8))
        words = enumerate_words(s, 8)
        scaled = enumerate_words(rescale(s, Fraction(5, 3)), Fraction(40, 3))
        assert [(w.letters, w.degree) for w in words] == \
            [(w.letters, w.degree) for w in scaled]
