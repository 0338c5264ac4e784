"""The canonical writer against json, and the readers of rationals:
`dumps_canonical` writes what json.dumps(sort_keys=True,
separators=(",", ": "), indent=1) writes, on drawn trees, on every golden
report and on a large stabilize document; `as_rational` reads every
action-valued argument of the Python API; `bulk` keeps the cyclic
collector out of the big record builds."""

import gc
import inspect
import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cli_invoke import invoke
from test_cli_golden import RUNS, write_fixtures
from weinkit.chords import ChordRecord, ChordSpectrum, choose_Q, stabilize
from weinkit.serialize import SchemaError, as_rational, bulk, dumps_canonical
from weinkit.surgery import (
    OrbitRecord,
    OrbitSpectrum,
    belt_sphere_chords,
    enumerate_words,
    nonsimultaneous_words,
    orbits_after_surgery,
)


def json_dumps(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1)


class Int(int):
    def __repr__(self):
        return "Int(...)"


class Float(float):
    def __repr__(self):
        return "Float(...)"


class Str(str):
    pass


SCALARS = (st.none() | st.booleans()
           | st.integers() | st.integers(min_value=-10**60, max_value=10**60)
           | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf,
                                             -0.0, 1e300, 5e-324])
           | st.text() | st.text(st.characters(max_codepoint=0x1f))
           | st.text(st.sampled_from("aé☃\U0001f600\ud800\"\\\n\x7f"))
           | st.integers().map(Int) | st.floats().map(Float)
           | st.text().map(Str))

TREES = st.recursive(
    SCALARS,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(max_size=4), children,
                                        max_size=4)
                      | st.dictionaries(st.integers(), children, max_size=3)),
    max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(TREES)
def test_writer_matches_json(doc):
    assert dumps_canonical(doc) == json_dumps(doc)


@pytest.mark.parametrize("doc", [
    {}, [], (), {"a": [], "b": {}, "c": ()}, [[[]]], {"x": [{}]},
    {1.5: 1, 2: 2, -1: 3}, {True: 1, False: 2}, {None: [None]}, {Int(3): 1, Float(0.5): 2},
    {Str("b"): 1, "a": 2}, [math.nan, -math.inf, Float(math.inf)],
    10**400, "𐏿"])
def test_writer_matches_json_on_edge_cases(doc):
    assert dumps_canonical(doc) == json_dumps(doc)


@pytest.mark.parametrize("doc", [object(), {(1,): 2}, [{1, 2}],
                                 {"a": 1, 2: 3}])
def test_writer_raises_what_json_raises(doc):
    with pytest.raises(TypeError) as want:
        json_dumps(doc)
    with pytest.raises(TypeError, match=str(want.value)):
        dumps_canonical(doc)


def test_writer_matches_json_on_every_golden_report(tmp_path, monkeypatch):
    # the golden transcripts pin each report's text; here the same reports
    # are written by json too
    write_fixtures(str(tmp_path))
    monkeypatch.chdir(tmp_path)
    reports = 0
    for args in RUNS:
        out = invoke(args).stdout
        try:
            doc = json.loads(out)
        except ValueError:
            continue
        assert out == json_dumps(doc) + "\n", args
        reports += 1
    assert reports >= 100


@pytest.fixture(scope="module")
def big_stabilize_doc():
    spectrum = ChordSpectrum(3, (ChordRecord("a", -1, 1), ChordRecord("b", 0, 2),
                                 ChordRecord("c", 2, 3)), 10)
    return stabilize(spectrum, 10_000, choose_Q(3), Fraction(1, 2)).to_json()


def test_writer_matches_json_on_a_large_stabilize_document(big_stabilize_doc):
    assert len(big_stabilize_doc["chords"]) == 80_003
    assert dumps_canonical(big_stabilize_doc) == json_dumps(big_stabilize_doc)


@pytest.mark.parametrize("value, want", [
    (3, (3, 1)), (True, (1, 1)), (Fraction(6, 4), (3, 2)), ("6/4", (3, 2)),
    ("-0/5", (0, 1)), ("1.25", (5, 4)), (" 7 ", (7, 1))])
def test_as_rational_reads_the_api_spellings(value, want):
    assert as_rational(value, "x") == want


@pytest.mark.parametrize("value", [0.5, 1e3, None, [1, 2], (1, 2),
                                   complex(1, 0)])
def test_as_rational_refuses_other_types(value):
    with pytest.raises(ValueError, match=(
            "x must be an integer, a Fraction or a 'p/q' string, got ")):
        as_rational(value, "x")


@pytest.mark.parametrize("call, field", [
    (lambda: OrbitSpectrum(3, (), "1e3000000"), "action bound"),
    (lambda: ChordSpectrum(3, (), "2E+400000"), "action bound"),
    (lambda: OrbitRecord(1, "1e999999"), "orbit action"),
    (lambda: ChordRecord("a", 1, "5e-900000"), "chord 'a': action"),
])
def test_api_refuses_exponent_notation_quickly(call, field):
    # OrbitSpectrum(3, (), "1e3000000") built a three-million-digit bound
    # in 1.2 s before failing the comparison
    start = time.perf_counter()
    with pytest.raises(SchemaError, match=(
            f"{field} '[^']*': exponent notation is not accepted")):
        call()
    assert time.perf_counter() - start < 0.5


ABC = ChordSpectrum(3, (ChordRecord("a", 1, 1), ChordRecord("b", 2, "3/2"),
                        ChordRecord("c", 3, 2)), 40)


def test_bulk_turns_the_collector_off_and_back_on():
    assert gc.isenabled()
    assert bulk(gc.isenabled)() is False
    assert gc.isenabled()
    with pytest.raises(ValueError, match="bound must be positive"):
        enumerate_words(ABC, 0)
    assert gc.isenabled()


def test_bulk_leaves_a_disabled_collector_disabled():
    gc.disable()
    try:
        assert len(enumerate_words(ABC, 5)) > 0
        assert not gc.isenabled()
        with pytest.raises(ValueError, match="bound must be positive"):
            enumerate_words(ABC, 0)
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("build, params", [
    (enumerate_words, ["spectrum", "bound", "skip_non_null_homotopic"]),
    (orbits_after_surgery, ["old", "chords", "bound"]),
    (belt_sphere_chords, ["spectrum", "bound"]),
    (nonsimultaneous_words, ["s_minus", "aux", "connector_in",
                             "connector_out", "zigzag_action"]),
    (stabilize, ["spectrum", "N", "q_data", "zigzag_action", "sites"]),
])
def test_bulk_keeps_name_doc_and_signature(build, params):
    raw = build.__wrapped__
    assert build.__name__ == raw.__name__ != "run"
    assert build.__doc__ == raw.__doc__ and build.__doc__
    assert list(inspect.signature(build).parameters) == params


def _zigzag_input():
    return (ChordSpectrum(3, (ChordRecord("a", -1, 1), ChordRecord("b", 0, 2),
                              ChordRecord("c", 2, 3)), 10),
            400, choose_Q(3), Fraction(1, 2))


@pytest.mark.parametrize("build, arguments, size", [
    (enumerate_words, lambda: (ABC, 14), len),
    (orbits_after_surgery, lambda: (OrbitSpectrum(3, (), 40), ABC, 14),
     lambda out: len(out.orbits)),
    (belt_sphere_chords, lambda: (ABC, 14), lambda out: len(out.chords)),
    (nonsimultaneous_words, lambda: (
        ChordSpectrum(3, (ChordRecord("p", 1, 1),), 12), ABC,
        ChordRecord("in", 1, "1/2"), ChordRecord("out", 2, "1/2")),
     lambda out: len(out.chords)),
    (stabilize, _zigzag_input, lambda out: len(out.chords)),
], ids=["words", "orbits", "belt", "nonsimultaneous", "stabilize"])
def test_bulk_builds_start_no_collection(build, arguments, size):
    args = arguments()
    gc.disable()
    try:
        want = build(*args)
    finally:
        gc.enable()
    assert size(want) >= 3000
    # count only the collections that start while the build runs: the one
    # it deferred starts at the first allocation after it
    starts, running = [], [False]

    def count(phase, info):
        if phase == "start" and running[0]:
            starts.append(info["generation"])
    gc.callbacks.append(count)
    try:
        running[0] = True
        got = build(*args)
        running[0] = False
    finally:
        gc.callbacks.remove(count)
    assert starts == []
    assert got == want
