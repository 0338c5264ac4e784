"""Package-wide properties: postconditions survive `python -O`, the
command line loads nothing outside the standard library, no module under
src/ imports numpy or dataclasses, no command process loads numpy,
`chord-degree` and `surgery flexible` load neither dataclasses nor
inspect, every golden run keeps its transcript with numpy or dataclasses
blocked, every record type has the storage, equality, hash, repr
and immutability of `serialize.Record`, `import weinkit` executes no
submodule and each command executes only the modules it uses, the public
names are those of the eager package, the Python API rejects non-integer
counts instead of truncating them and names each invalid input, every JSON reader goes through
`serialize.reader` and raises only SchemaError, every sample document
and record survives its reader's round trip, every reader of a degree map
rejects a degree spelled twice, equal complexes and presentations compare
equal, and only `graded.py` pairs a group's rank and torsion in one
degree."""

import ast
import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import weinkit
from test_cli_golden import COMMANDS, RUNS, write_fixtures
from weinkit.chords import (
    ChordRecord,
    ChordSpectrum,
    MorseData,
    choose_Q,
    chord_degree,
    self_intersection_index,
    stabilize,
)
from weinkit.graded import (
    ChainComplex,
    GradedGroup,
    _coprime_base,
    homology,
    invariant_factor_chain,
    semi_characteristic,
)
from weinkit.floer import (
    LoopHomologyTable,
    SHPlusProfile,
    boundedinfinite_distinguisher,
    cem_flexible_obstruction,
    distinguish_flexible_fillings,
    flexible_support_test,
    sh_support_adc_obstruction,
    taut_les_bounds,
)
from weinkit.handles import (
    BoundaryHomologyReport,
    C1HandleNote,
    C1Report,
    HandlePresentation,
    boundary_connect_sum,
    c1_propagation_check,
    handlebody_boundary_homology,
    omega_membership,
)
from weinkit.models import (
    middle_rank_family,
    mixed_sign_spectrum,
    sample_certificate,
    two_letter_table,
    wedge_spheres_boundary,
    wedge_thickening,
)
from weinkit.scaling import CheckResult, bound_ratio, build_g, verify_h_family
from weinkit.serialize import Record, SchemaError, Verdict, _spectrum_fields, matrix_from_json, reader
from weinkit.snf import bareiss_determinant, mat_mul
from weinkit.surgery import (
    ADCCertificate,
    CyclicWord,
    OrbitRecord,
    OrbitSpectrum,
    Stage,
    add_surgery_chord,
    belt_sphere_chords,
    enumerate_words,
    flexible_surgery_certificate,
    normalize_certificate,
    orbits_after_surgery,
    rescale,
    subcritical_surgery,
)

SRC = Path(weinkit.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


# home module -> the public names `weinkit` re-exports from it; the same
# names, from the same modules, as when the package imported them eagerly
FACADE = {
    "graded": """ChainComplex GradedGroup cancel_summand
        cohomology_from_homology euler_characteristic homology
        homology_from_cohomology invariant_factor_chain
        semi_characteristic""",
    "snf": """SNFResult bareiss_determinant invariant_factors is_unimodular
        smith_normal_form""",
    "handles": """BoundaryHomologyReport C1Report HandlePresentation
        OmegaVerdict boundary_connect_sum boundary_homology
        c1_propagation_check cohomology handlebody_boundary_homology
        intersection_form_rank omega_membership""",
    "floer": """LoopHomologyTable SHPlusProfile Verdict
        boundedinfinite_distinguisher cem_flexible_obstruction
        distinguish_flexible_fillings flexible_support_test nearby_conclusion
        sh_plus_from_vanishing sh_plus_reindex_back
        sh_support_adc_obstruction taut_les_bounds wh_plus_from_vanishing
        wrapped_loop_grading""",
    "chords": """ChordRecord ChordSpectrum MorseData SelfIntersectionIndex
        chord_degree choose_Q min_positive_N self_intersection_index
        stabilize""",
    "surgery": """ADCCertificate CyclicWord OrbitRecord OrbitSpectrum Stage
        adc_check add_surgery_chord belt_sphere_chords canonical_rotation
        enumerate_words flexible_surgery_certificate nonsimultaneous_words
        normalize_certificate orbits_after_surgery rescale
        subcritical_surgery""",
    "scaling": "GProfile bound_ratio build_g conformal_bound verify_h_family",
    "corpus": "CORPUS examples_corpus run_example",
}
PUBLIC = {name: module for module, names in FACADE.items()
          for name in names.split()}

# the weinkit modules a `weinkit` process executes, over every golden run of
# each command
EXECUTED = {
    **dict.fromkeys(["homology", "boundary", "rank-form", "omega-check"],
                    "cli serialize graded snf handles"),
    **dict.fromkeys(["sh-plus", "wh-plus", "distinguish", "cem-bound",
                     "loops-distinguish", "nearby"],
                    "cli serialize graded snf floer"),
    **dict.fromkeys(["chord-degree", "stabilize", "self-index"],
                    "cli serialize chords"),
    **dict.fromkeys(["words", "surgery subcritical", "surgery flexible",
                     "surgery belt", "surgery ambient", "adc-check",
                     "normalize-cert"], "cli serialize chords surgery"),
    "scaling-verify": "cli serialize scaling",
    "examples": ("cli serialize graded snf handles floer chords surgery "
                 "scaling models corpus"),
}

# defines executed(): the submodules of weinkit that have executed.  A module
# registered for lazy loading is of a subclass of ModuleType until it
# executes, and type(), unlike an attribute lookup, does not trigger the load
EXECUTED_CODE = (
    "def executed():\n"
    "    return sorted(n.removeprefix('weinkit.')\n"
    "                  for n, m in sys.modules.items()\n"
    "                  if n.startswith('weinkit.')\n"
    "                  and type(m) is types.ModuleType)\n")


def _python(args, cwd=None, python=sys.executable, timeout=60):
    """Run the interpreter on ARGS with src/ and tests/ importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), str(TESTS), env.get("PYTHONPATH")]))
    return subprocess.run([python, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def test_no_bare_asserts_in_src():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
    assert not found, f"bare assert vanishes under python -O: {found}"


def test_every_private_helper_has_a_caller():
    # a module-level _name in src/weinkit is referenced outside its own
    # definition somewhere in src/weinkit: by a call, a base class or an
    # import
    statements = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            names = {node.id if isinstance(node, ast.Name)
                     else node.attr if isinstance(node, ast.Attribute)
                     else node.name
                     for node in ast.walk(stmt)
                     if isinstance(node, (ast.Name, ast.Attribute, ast.alias))}
            statements.append((path.name, stmt, names))
    unused = [
        f"{module}:{stmt.name}" for module, stmt, _ in statements
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name.startswith("_") and not stmt.name.startswith("__")
        and not any(stmt.name in names
                    for _, other, names in statements if other is not stmt)]
    assert not unused, f"private helpers nothing refers to: {unused}"


# every class with a from_json, and the keys its documents use
READERS = (ChordRecord, ChordSpectrum, MorseData, OrbitRecord, OrbitSpectrum,
           Stage, ADCCertificate, GradedGroup, ChainComplex,
           HandlePresentation, SHPlusProfile, LoopHomologyTable, Verdict,
           CheckResult, C1HandleNote, C1Report, BoundaryHomologyReport)
DOCUMENT_KEYS = """schema n bound chords id degree action front null_homotopic
    name dimension chi orientable critical_points orbits origin contractible
    generic scale spectrum stages graded_group rank torsion dims boundaries
    handles index label boundary_matrices intersection_form
    allow_many_zero_handles profile provenance base horizon outcome fired
    witness coefficients value tolerance ok entries all_apply applies note
    boundary_dim q_dims undetermined integral_homology euler notes
    0 1 2 -1 01 +1""".split()


def test_every_from_json_goes_through_reader():
    # each from_json, written out or derived by Record from its codecs, is
    # serialize.reader's function, which alone turns KeyError, TypeError and
    # ValueError into SchemaError "<Type>: ..."
    read_code = reader("x")(lambda doc: doc).__code__
    modules = [importlib.import_module(f"weinkit.{path.stem}")
               for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"]
    found = {value for module in modules for value in vars(module).values()
             if isinstance(value, type) and value.__module__ == module.__name__
             and hasattr(value, "from_json")}
    assert found == set(READERS)
    for cls in READERS:
        name = cls.__name__
        assert cls.from_json.__code__ is read_code, name
        with pytest.raises(SchemaError, match=f"^{name}: expected a JSON object"):
            cls.from_json([])
        with pytest.raises(SchemaError, match=f"^{name}: "):
            cls.from_json({"schema": 1})
        untagged = {k: v for k, v in SAMPLES[cls].items() if k != "schema"}
        if "schema" in SAMPLES[cls]:
            with pytest.raises(SchemaError, match=f"^{name}: missing or "
                               "unsupported schema tag"):
                cls.from_json(untagged)
        else:
            assert isinstance(cls.from_json(untagged), cls)
    # a from_json written out leaves errors to reader
    catching, prefixed = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not (isinstance(fn, ast.FunctionDef)
                        and fn.name == "from_json"):
                    continue
                where = f"{path.name}:{cls.name}.from_json"
                caught = {node.id for handler in ast.walk(fn)
                          if isinstance(handler, ast.ExceptHandler)
                          and handler.type is not None
                          for node in ast.walk(handler.type)
                          if isinstance(node, ast.Name)}
                if caught & {"KeyError", "TypeError", "ValueError"}:
                    catching.append(where)
                if any(isinstance(node, ast.Constant)
                       and str(node.value).startswith(f"{cls.name}:")
                       for node in ast.walk(fn)):
                    prefixed.append(where)
    assert not catching, f"from_json with its own error policy: {catching}"
    assert not prefixed, f"from_json restating its prefix: {prefixed}"


def _rank_torsion_pairs(source):
    """Lines of SOURCE where one tuple reads both .rank(k) and .torsion(k)
    of one object, with the same arguments."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Tuple):
            continue
        reads = {}
        for call in (c for elt in node.elts for c in ast.walk(elt)):
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr in ("rank", "torsion")):
                key = ast.dump(call.func.value), tuple(map(ast.dump, call.args))
                reads.setdefault(key, set()).add(call.func.attr)
        if {"rank", "torsion"} in reads.values():
            lines.append(node.lineno)
    return lines


def test_graded_pairs_are_read_through_at():
    # (g.rank(k), g.torsion(k)) is g.at(k): outside graded.py such a pair
    # restates GradedGroup's one lookup
    assert _rank_torsion_pairs("x = (g.rank(k) + h.rank(j), g.torsion(k))") == [1]
    assert _rank_torsion_pairs("x = (g.rank(k), h.torsion(k))") == []
    assert _rank_torsion_pairs("x = (g.rank(k), g.torsion(k - 1))") == []
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             if path.name != "graded.py"
             for line in _rank_torsion_pairs(path.read_text())]
    assert not found, f"(rank, torsion) pairs outside GradedGroup.at: {found}"


_scalars = (st.none() | st.booleans() | st.integers(-2, 4) | st.integers()
            | st.floats() | st.text("ab1/:", max_size=4)
            | st.sampled_from(["1/2", "3", "-1", "1/0", "x", "", "old",
                               "word:a", "belt:1", "formula"]))
_json = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(DOCUMENT_KEYS), inner,
                                     max_size=6)),
    max_leaves=16)
# a tagged object over the documents' own keys reaches past the tag check
_documents = _json | st.dictionaries(
    st.sampled_from(DOCUMENT_KEYS), _json, max_size=8).map(
        lambda doc: {**doc, "schema": 1})


def _sample_objects():
    """A value of each reader's class."""
    cert = sample_certificate(3, 2)
    c1 = c1_propagation_check(middle_rank_family(3, 2))
    objects = (ChordRecord("a", 1, 1, (2, 0, 0)), mixed_sign_spectrum(),
               MorseData("S2", 2, 2, True, (0, 2)), OrbitRecord(1, 1, "belt:1"),
               cert.stages[0].spectrum, cert.stages[0], cert,
               GradedGroup.from_dict({0: (1, ()), 2: (0, (2, 4))}),
               ChainComplex({0: 1, 1: 1}, {1: [[2]]}),
               middle_rank_family(3, 2),
               SHPlusProfile(GradedGroup.free({1: 1})),
               LoopHomologyTable({0: 1, 2: 3}, {0: 1}, 4),
               Verdict("non-contactomorphic", True, {"degree": 2}, "Q"),
               verify_h_family().checks["slope_positive"], c1.entries[0], c1,
               # undetermined degrees, a note and torsion
               handlebody_boundary_homology(ChainComplex(
                   {0: 1, 1: 1, 2: 1, 3: 1}, {2: [[2]]}), 6))
    return dict(zip(READERS, objects))


SAMPLE_OBJECTS = _sample_objects()
# a valid document of each reader, as parsed JSON
SAMPLES = {cls: json.loads(json.dumps(obj.to_json()))
           for cls, obj in SAMPLE_OBJECTS.items()}


def _paths(doc, path=()):
    yield path
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    out = json.loads(json.dumps(doc))
    *head, last = path
    node = out
    for key in head:
        node = node[key]
    node[last] = value
    return out


def _mutants(doc):
    """DOC with one node, the root included, replaced by any JSON value."""
    return st.builds(_replaced, st.just(doc),
                     st.sampled_from(list(_paths(doc))), _json)


def test_every_sample_document_reads():
    for cls in READERS:
        assert isinstance(cls.from_json(SAMPLES[cls]), cls)


TWO_ZERO_HANDLES = HandlePresentation(3, [0, 0, 1],
                                      allow_many_zero_handles=True)


@pytest.mark.parametrize("cls, doc", [
    *SAMPLES.items(),
    (HandlePresentation, json.loads(json.dumps(TWO_ZERO_HANDLES.to_json())))],
    ids=[*(cls.__name__ for cls in SAMPLES), "HandlePresentation-two-0-handles"])
def test_every_document_round_trips(cls, doc):
    # the document read back is written out unchanged; a record read from
    # its own document equals it
    assert cls.from_json(doc).to_json() == doc
    record = SAMPLE_OBJECTS[cls]
    if isinstance(record, Record):
        assert cls.from_json(record.to_json()) == record


@pytest.mark.parametrize("cls, doc, degree", [
    (GradedGroup, {"graded_group": {"1": {"rank": 1}, "01": {"rank": 2}}}, 1),
    (SHPlusProfile, {"profile": {"2": {"rank": 1}, "+2": {"rank": 1}}}, 2),
    (ChainComplex, {"dims": {"0": 1, "+0": 3}}, 0),
    (HandlePresentation, {"n": 2, "handles": [{"index": 0}, {"index": 1},
                                              {"index": 2}],
                          "boundary_matrices": {"2": [[1]], "02": [[0]]}}, 2),
    (LoopHomologyTable, {"dims": {"0": 1, "00": 2}, "base": {}}, 0),
], ids=["GradedGroup", "SHPlusProfile", "ChainComplex", "HandlePresentation",
        "LoopHomologyTable"])
def test_degree_maps_reject_a_degree_spelled_twice(cls, doc, degree):
    # the last spelling used to win: rank 2, dims {0: 3}, d_2 dropped
    with pytest.raises(SchemaError, match=f"spells degree {degree} twice"):
        cls.from_json({"schema": 1, **doc})


def test_equal_complexes_and_presentations_compare_equal():
    # both used to compare by identity, so equal data built twice differed
    assert ChainComplex({0: 1, 1: 1}, {1: [[2]]}) == ChainComplex(
        {1: 1, 0: 1, 2: 0}, {1: [[2]]})
    p = middle_rank_family(3, 2)
    assert p == middle_rank_family(3, 2) != middle_rank_family(3, 3)
    assert HandlePresentation.from_json(p.to_json()) == p
    assert boundary_connect_sum(p, p) == boundary_connect_sum(p, p)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), cls=st.sampled_from(READERS))
def test_every_reader_returns_an_instance_or_raises_schema_error(data, cls):
    doc = data.draw(_documents | _mutants(SAMPLES[cls]))
    try:
        out = cls.from_json(doc)
    except SchemaError:
        return
    assert isinstance(out, cls)


def test_import_leaves_out_sympy_scipy_and_numpy():
    code = ("import sys, weinkit; "
            "print(sorted({'sympy', 'scipy', 'numpy'} & set(sys.modules)))")
    out = _python(["-c", code])
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_command_line_loads_only_the_standard_library(tmp_path):
    # every module the process loads past interpreter start-up is the
    # standard library's or weinkit's: the import, --help, a command, the
    # profile with its CSV dump and the whole examples corpus
    code = ("import json, sys\n"
            "before = set(sys.modules)\n"
            "import weinkit.cli\n"
            "for args in (['--help'], ['chord-degree', '--down', '2',\n"
            "             '--up', '0', '--ind', '0'],\n"
            "             ['scaling-verify', '--grid', '301', '--csv',\n"
            "              sys.argv[2]], ['examples']):\n"
            "    try:\n"
            "        weinkit.cli.main(args)\n"
            "    except SystemExit:\n"
            "        pass\n"
            "loaded = {n.partition('.')[0] for n in set(sys.modules) - before}\n"
            "json.dump(sorted(loaded), open(sys.argv[1], 'w'))\n")
    out = _python(["-c", code, str(tmp_path / "loaded.json"),
                   str(tmp_path / "profile.csv")])
    assert out.returncode == 0, out.stderr
    assert len((tmp_path / "profile.csv").read_text().splitlines()) == 302
    loaded = set(json.loads((tmp_path / "loaded.json").read_text()))
    assert loaded - set(sys.stdlib_module_names) == {"weinkit"}


def test_cli_process_imports_numpy_only_for_the_grid():
    # the exact scaling certificate needs no float grid library: neither a
    # plain command nor scaling-verify's grid imports numpy
    cli = ["-X", "importtime", "-m", "weinkit.cli"]
    for args in (["chord-degree", "--down", "2", "--up", "0", "--ind", "0"],
                 ["scaling-verify", "--grid", "301"]):
        out = _python(cli + args)
        assert out.returncode == 0, out.stderr
        assert not [line for line in out.stderr.splitlines()
                    if "numpy" in line], args


def test_every_other_command_leaves_out_numpy(tmp_path):
    # every golden run but the two grid commands, in one process
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


def _golden_runs_with_blocked(module, cwd):
    """Every golden run, scaling-verify and examples included, in one
    process where `import MODULE` fails: each must give its pinned exit
    code and stdout."""
    # pytest, which the golden module imports, itself needs dataclasses,
    # so it is imported before the block and the weinkit modules after it
    code = ("import json, sys\n"
            "import pytest\n"
            f"sys.modules[{module!r}] = None\n"
            "from test_cli_golden import DATA, RUNS, _key, transcript, \\\n"
            "    write_fixtures\n"
            "write_fixtures('.')\n"
            "with open(DATA) as fh:\n"
            "    golden = json.load(fh)\n"
            "for args in RUNS:\n"
            "    got, want = transcript(args), golden[_key(args)]\n"
            "    if [got[k] for k in ('exit_code', 'stdout')] != \\\n"
            "            [want[k] for k in ('exit_code', 'stdout')]:\n"
            "        print(_key(args))\n"
            "print(len(RUNS), 'runs')\n")
    out = _python(["-c", code], cwd=cwd)
    assert out.returncode == 0, out.stderr
    assert out.stdout == f"{len(RUNS)} runs\n", f"differ: {out.stdout}"


def test_every_golden_run_passes_with_numpy_blocked(tmp_path):
    _golden_runs_with_blocked("numpy", tmp_path)


def test_every_golden_run_passes_with_dataclasses_blocked(tmp_path):
    # records are built on serialize.Record, not generated by dataclasses
    _golden_runs_with_blocked("dataclasses", tmp_path)


def _imports_in(package, paths):
    """`file:line` of every import of PACKAGE in the modules at PATHS."""
    found = []
    for path in sorted(paths):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                roots = [node.module or ""]
            else:
                continue
            if any(r.partition(".")[0] == package for r in roots):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_oracles_import_nothing_from_weinkit():
    # an oracle that ran weinkit's own code would restate it, not check it
    repo = Path(__file__).resolve().parent.parent
    found = _imports_in("weinkit", [repo / "tests" / "oracles.py",
                                    repo / "perfbench" / "oracle.py"])
    assert not found, f"weinkit imported at {found}"


def test_no_module_in_src_imports_numpy():
    found = _imports_in("numpy", SRC.glob("*.py"))
    assert not found, f"numpy imported at {found}"


def test_no_module_in_src_imports_dataclasses():
    found = _imports_in("dataclasses", SRC.glob("*.py"))
    assert not found, f"dataclasses imported at {found}"


def _imported(args, cwd=None):
    """The modules a process running ARGS under -X importtime imports."""
    out = _python(["-X", "importtime", *args], cwd=cwd)
    assert out.returncode == 0, out.stderr
    return {line.rpartition("|")[2].strip()
            for line in out.stderr.splitlines()
            if line.startswith("import time:")}


def test_command_process_imports_neither_dataclasses_nor_inspect(fixtures):
    # dataclasses loads inspect, ast, dis and tokenize; what interpreter
    # start-up itself imports (site hooks) is not the command's doing
    start_up = _imported(["-c", "pass"])
    for args in (["chord-degree", "--down", "2", "--up", "0", "--ind", "0"],
                 ["surgery", "flexible", "cert1.json", "--n", "3",
                  "--chords", "chords.json"]):
        loaded = _imported(["-m", "weinkit.cli", *args], cwd=fixtures)
        assert not {"dataclasses", "inspect"} & (loaded - start_up), args


def test_import_executes_no_submodule_but_registers_each():
    code = ("import json, sys, types\n" + EXECUTED_CODE
            + "import weinkit\n"
            "print(json.dumps([executed(), sorted(n for n in sys.modules\n"
            "                  if n.startswith('weinkit.'))]))\n")
    out = _python(["-c", code])
    assert out.returncode == 0, out.stderr
    executed, registered = json.loads(out.stdout)
    assert executed == []
    # every module but the command line, which is imported as usual
    assert registered == sorted(f"weinkit.{p.stem}" for p in SRC.glob("*.py")
                                if p.stem not in ("__init__", "cli"))


def _executed_by(args_list, cwd):
    """The weinkit modules one process executes running each ARGS of
    ARGS_LIST through the command line, in order."""
    code = ("import json, sys, types\n" + EXECUTED_CODE
            + "from cli_invoke import invoke\n"
            "for args in json.loads(sys.argv[1]):\n"
            "    invoke(args)\n"
            "print(' '.join(executed()))\n")
    out = _python(["-c", code, json.dumps(args_list)], cwd=cwd)
    assert out.returncode == 0, out.stderr
    return set(out.stdout.split())


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli-fixtures")
    write_fixtures(str(directory))
    return directory


def test_every_command_has_an_executed_set():
    assert set(EXECUTED) == {" ".join(c) for c in COMMANDS}


@pytest.mark.parametrize("command", sorted(EXECUTED))
def test_command_executes_only_its_modules(command, fixtures):
    words = command.split()
    runs = [r for r in RUNS if r[:len(words)] == words]
    assert _executed_by(runs, fixtures) == set(EXECUTED[command].split())


def test_help_executes_only_the_command_line(fixtures):
    assert _executed_by([["--help"], ["surgery", "--help"]],
                        fixtures) == {"cli", "serialize"}


def test_public_names_are_those_of_the_eager_package():
    assert weinkit.__all__ == sorted(PUBLIC)
    for name, module in PUBLIC.items():
        home = sys.modules[f"weinkit.{module}"]
        assert getattr(weinkit, name) is getattr(home, name), name
    assert set(dir(weinkit)) >= set(weinkit.__all__)
    namespace = {}
    exec("from weinkit import *", namespace)
    assert set(weinkit.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        weinkit.no_such_name


def test_verdict_lives_in_serialize():
    # surgery takes Verdict from serialize, so it need not execute floer
    assert weinkit.floer.Verdict is weinkit.serialize.Verdict


def _zigzag_record():
    """A chord stabilize made, its action not yet read."""
    spectrum = stabilize(mixed_sign_spectrum(), 1, choose_Q(4))
    return next(c for c in spectrum.chords if c.id == "zz1")


def _stage(scale=1):
    return Stage(scale, 2, OrbitSpectrum(3, (OrbitRecord(1, 1),), 2))


# (record, an equal one built apart, an unequal one of the same type, the
# field names) for every record type
RECORDS = [
    (lambda: weinkit.serialize.Verdict("x", True),
     lambda: weinkit.serialize.Verdict("x", True, None, "Z"),
     lambda: weinkit.serialize.Verdict("x", False),
     "outcome fired witness coefficients"),
    (lambda: weinkit.snf.smith_normal_form([[2]]),
     lambda: weinkit.SNFResult([[2]], [[1]], [[1]], 1, (2,)),
     lambda: weinkit.SNFResult([[2]], [[1]], [[1]], 0, (2,)),
     "d u v rank invariant_factors"),
    (lambda: GradedGroup.from_dict({0: (1, [4, 6])}),
     lambda: GradedGroup(((0, 1, (2, 12)),)),
     lambda: GradedGroup.zero(), "parts"),
    (lambda: SHPlusProfile(GradedGroup.zero()),
     lambda: SHPlusProfile(GradedGroup(()), "formula"),
     lambda: SHPlusProfile(GradedGroup.zero(), "user-supplied"),
     "group provenance"),
    (lambda: weinkit.BoundaryHomologyReport(3, {0: 1}, (), {}, 2),
     lambda: weinkit.BoundaryHomologyReport(3, {0: 1}, (), {}, 2, ()),
     lambda: weinkit.BoundaryHomologyReport(3, {0: 1}, (), {}, 0),
     "boundary_dim q_dims undetermined integral_homology euler notes"),
    (lambda: weinkit.OmegaVerdict(True, "r"),
     lambda: weinkit.OmegaVerdict(True, "r"),
     lambda: weinkit.OmegaVerdict(False, "r"), "member reason"),
    (lambda: weinkit.handles.C1HandleNote(2, "h", False, "n"),
     lambda: weinkit.handles.C1HandleNote(2, "h", False, "n"),
     lambda: weinkit.handles.C1HandleNote(3, "h", False, "n"),
     "index label applies note"),
    (lambda: weinkit.C1Report(3, (), True),
     lambda: weinkit.C1Report(3, (), True),
     lambda: weinkit.C1Report(3, (), False), "n entries all_apply"),
    (_zigzag_record,
     lambda: ChordRecord("zz1", 1, Fraction(1, 34),
                         (2, 0, 0)),
     lambda: ChordRecord("zz2", 1, "1/34", (2, 0, 0)),
     "id degree action front null_homotopic"),
    (lambda: ChordSpectrum(3, [ChordRecord("a", 1, 1)], 2),
     lambda: ChordSpectrum(3, (ChordRecord("a", 1, 1, None, True),), "2"),
     lambda: ChordSpectrum(3, (ChordRecord("a", 1, 1),), 3),
     "n chords bound"),
    (lambda: choose_Q(3),
     lambda: MorseData("S^1", 1, 0, True, [0, 1]),
     lambda: MorseData("T", 1, 0, True, (0, 1)),
     "name dimension chi orientable critical_points"),
    (lambda: weinkit.SelfIntersectionIndex(0, "Z"),
     lambda: weinkit.SelfIntersectionIndex(0, "Z"),
     lambda: weinkit.SelfIntersectionIndex(0, "Z/2"), "value modulus"),
    (lambda: weinkit.CyclicWord(("b", "a"), 2, 1),
     lambda: weinkit.CyclicWord(("a", "b"), 2, "1"),
     lambda: weinkit.CyclicWord(("a", "b"), 3, 1), "letters degree action"),
    (lambda: OrbitRecord(1, "1/2"),
     lambda: OrbitRecord(1, Fraction(1, 2), "old", True),
     lambda: OrbitRecord(1, "1/2", "belt:1"),
     "degree action origin contractible"),
    (lambda: OrbitSpectrum(3, [OrbitRecord(1, 1)], 2),
     lambda: OrbitSpectrum(3, (OrbitRecord(1, 1),), "2", True),
     lambda: OrbitSpectrum(3, (OrbitRecord(1, 1),), 2, False),
     "n orbits bound generic"),
    (_stage, lambda: _stage("1"), lambda: _stage("1/2"),
     "scale bound spectrum"),
    (lambda: ADCCertificate([_stage()]), lambda: ADCCertificate((_stage(),)),
     lambda: ADCCertificate(()), "stages"),
    (build_g, lambda: build_g(1.25, 0.03, 0.96, 0.03, 2001),
     lambda: build_g(nodes=11),
     "height rise_width fall_start fall_width nodes amplitude"),
    (bound_ratio, lambda: bound_ratio(build_g()),
     lambda: bound_ratio(tolerance=0),
     "max_ratio at_t at_z cap tolerance holds"),
    (weinkit.conformal_bound,
     lambda: weinkit.conformal_bound(Fraction(5, 4)),
     lambda: weinkit.conformal_bound(1000), "exponent value limit holds"),
    (lambda: weinkit.scaling.CheckResult(0, 0.5, True),
     lambda: weinkit.scaling.CheckResult(0, 0.5, True),
     lambda: weinkit.scaling.CheckResult(0, 0.5, False),
     "value tolerance ok"),
    (verify_h_family, lambda: verify_h_family(build_g()),
     lambda: verify_h_family(build_g(nodes=11)),
     "checks ok nodes t_max fd_step"),
    (lambda: ChainComplex({0: 1, 1: 1}, {1: [[2]]}),
     lambda: ChainComplex({0: 1, 1: 1, 2: 0}, {1: [[2]]}),
     lambda: ChainComplex({0: 1, 1: 1}, {1: [[3]]}), "dims boundaries"),
    (lambda: LoopHomologyTable({0: 1, 2: 3}, {0: 1}, 4),
     lambda: LoopHomologyTable({0: 1, 1: 0, 2: 3}, {0: 1, 3: 0}, 4),
     lambda: LoopHomologyTable({0: 1, 2: 3}, {0: 1}, 5),
     "dims base horizon"),
    (lambda: HandlePresentation(2, [0, 2], intersection_form=[[2]]),
     lambda: HandlePresentation(2, [(0, "h0.0"), (2, "h2.1")], {}, [[2]]),
     lambda: HandlePresentation(2, [0, 2], intersection_form=[[0]]),
     "n handles chain intersection_form"),
]


def test_every_record_type_is_in_the_table():
    built = {type(make()) for make, _, _, _ in RECORDS}
    assert built == set(weinkit.serialize.Record.__subclasses__())


@pytest.mark.parametrize("make, same, other, fields", RECORDS,
                         ids=[type(make()).__name__ for make, *_ in RECORDS])
def test_record_semantics(make, same, other, fields):
    record, twin, unequal = make(), same(), other()
    fields = fields.split()
    values = tuple(getattr(twin, name) for name in fields)
    # equal field tuples give equal records and equal hashes; records with a
    # dict or list field are unhashable
    assert record == twin and not record != twin and record is not twin
    assert record != unequal and type(unequal) is type(record)
    assert record != values and record.__eq__(values) is NotImplemented
    try:
        want = hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == want
    assert repr(record) == "{}({})".format(type(record).__name__, ", ".join(
        f"{name}={value!r}" for name, value in zip(fields, values)))
    # Record.__init__ stores one value per field, and no more
    if "__init__" not in vars(type(record)):
        assert type(record)(*values) == twin
    with pytest.raises(TypeError):
        type(record)(*values, None)
    # the trusted builds store the same values without the constructor,
    # and count their values or columns as Record.__init__ does
    cls, stored = type(record), twin._stored
    assert cls._unchecked(*stored) == twin
    assert cls._unchecked_columns(2, *([v, v] for v in stored)) == [twin, twin]
    for columns in (stored[:-1], (*stored, None)):
        with pytest.raises(TypeError, match=f"^{cls.__name__} takes "):
            cls._unchecked_columns(1, *([v] for v in columns))
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == twin


LIBRARY_CODE = ("import json, sys, types\n" + EXECUTED_CODE + """\
import weinkit
report = {"import": executed()}
report["attribute"] = (weinkit.GradedGroup
                       is sys.modules["weinkit.graded"].GradedGroup)
import weinkit.chords
report["submodule"] = (weinkit.chords is sys.modules["weinkit.chords"]
                       and "chords" in executed())
spectrum = weinkit.ChordSpectrum(3, (weinkit.ChordRecord("a", 1, 1),
                                     weinkit.ChordRecord("b", 2, "3/2")), 4)
report["words"] = sorted(".".join(w.letters)
                         for w in weinkit.enumerate_words(spectrum, 4))
report["executed"] = executed()
print(json.dumps(report))
""")


@pytest.mark.parametrize("version", ["3.10", "3.11", "3.12", "3.13"])
def test_lazy_loading_on_each_installed_interpreter(version):
    # LazyLoader changed in 3.12 (it takes a lock); run the library part of
    # the contract on every supported interpreter
    python = shutil.which(f"python{version}")
    probe = python and subprocess.run(
        [python, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
        capture_output=True, text=True, timeout=60)
    if not probe or probe.returncode != 0 or probe.stdout.strip() != version:
        pytest.skip(f"python{version} is not installed")
    out = _python(["-c", LIBRARY_CODE], python=python)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {
        "import": [], "attribute": True, "submodule": True,
        "words": ["a", "a.a", "a.a.a", "a.a.b", "a.b", "b", "b.b"],
        "executed": ["chords", "graded", "serialize", "snf", "surgery"]}


_POINT = GradedGroup.free({0: 1})


@pytest.mark.parametrize("call, field", [
    (lambda: homology(ChainComplex({0: 2.7})), "generator count at degree 0"),
    (lambda: HandlePresentation(3.9, [0]), "half-dimension n"),
    (lambda: HandlePresentation(3, [0, (3.5, "a")]), "handle 'a' index"),
    (lambda: GradedGroup.from_dict({0: (1.7, [])}), "rank at degree 0"),
    (lambda: invariant_factor_chain([6.5, 4]), "torsion factor"),
    (lambda: ChordRecord("a", 0, 1, (1.9, 0, 0)), "chord 'a': front entry"),
    (lambda: MorseData("x", 1, 0, True, (0.2, 1.7)), "critical index"),
    (lambda: stabilize(mixed_sign_spectrum(), 1, choose_Q(4), sites=1.5),
     "sites"),
    (lambda: LoopHomologyTable({0: 1, 2: 2.9}, {0: 1}), "dims at degree 2"),
    (lambda: LoopHomologyTable({0: 1, 2: 2}, {0: 1.5}), "base at degree 0"),
    (lambda: handlebody_boundary_homology(ChainComplex({0: 1, 2: 1}), 6.7),
     "total dimension"),
    (lambda: ChordRecord("a", 1.5, 1), "chord 'a': degree"),
    (lambda: OrbitRecord(1.5, 1), "orbit degree"),
    (lambda: build_g(nodes=2001.9), "nodes"),
    (lambda: build_g(nodes="2001"), "nodes"),
    (lambda: ChordSpectrum(3.5, (), 1), "half-dimension"),
    (lambda: OrbitSpectrum(3.5, (), 1), "half-dimension"),
    (lambda: MorseData("x", 1.5, 0, True, (0, 1)), "dimension"),
    (lambda: MorseData("x", 1, 0.0, True, (0, 1)), "chi"),
    (lambda: stabilize(mixed_sign_spectrum(), 1.5, choose_Q(4)), "N"),
    (lambda: subcritical_surgery(OrbitSpectrum(3, (), 4), 3, 1, 2.0, 1),
     "iterates"),
    (lambda: add_surgery_chord(mixed_sign_spectrum(), 1.5), "handle index k"),
    (lambda: self_intersection_index(4, 1.5, choose_Q(4)), "N"),
    (lambda: cem_flexible_obstruction(1.5, 0), "copy count"),
    (lambda: HandlePresentation(3, [0, 3.5]), "handle index"),
    (lambda: distinguish_flexible_fillings(_POINT, _POINT, 3.5),
     "half-dimension n"),
    (lambda: flexible_support_test({4}, 2.5), "half-dimension n"),
    (lambda: choose_Q(3.5), "half-dimension n"),
    (lambda: chord_degree(1.5, 0, 0), "down-cusp count"),
    (lambda: chord_degree(1, "x", 0), "up-cusp count"),
    (lambda: chord_degree(1, 0, 1.5), "Morse index"),
    (lambda: taut_les_bounds({}, {0: 1}, 3.5), "half-dimension n"),
    (lambda: omega_membership(_POINT, 3.5, True, True, True), "dimension n"),
    (lambda: semi_characteristic(_POINT, 3.5), "dimension n"),
    (lambda: sh_support_adc_obstruction({0}, 3.5), "half-dimension n"),
    (lambda: boundedinfinite_distinguisher(
        LoopHomologyTable({0: 1}, {0: 1}), LoopHomologyTable({0: 1}, {0: 1}),
        {0: 1}, 3.5), "half-dimension n"),
    (lambda: ChordRecord("a", 1, 0.5), "chord 'a': action"),
    (lambda: OrbitRecord(1, 0.1), "orbit action"),
    (lambda: CyclicWord(("a",), 1, 0.5), "word action"),
    (lambda: ChordSpectrum(3, (), 2.5), "action bound"),
    (lambda: OrbitSpectrum(3, (), Decimal(4)), "action bound"),
    (lambda: Stage(0.5, 4, OrbitSpectrum(3, (), 4)), "stage scale"),
    (lambda: Stage(1, 4.0, OrbitSpectrum(3, (), 4)), "stage bound"),
    (lambda: rescale(mixed_sign_spectrum(), 0.5), "scale"),
    (lambda: normalize_certificate(sample_certificate(3, 3), 0.5), "eps"),
    (lambda: stabilize(mixed_sign_spectrum(), 1, choose_Q(4), 0.25),
     "zigzag action"),
    (lambda: add_surgery_chord(mixed_sign_spectrum(), 1, 0.001),
     "new chord action"),
    (lambda: subcritical_surgery(OrbitSpectrum(3, (), 4), 3, 1, 2, 0.5),
     "handle-shrinking parameter"),
    (lambda: enumerate_words(two_letter_table(), 2.5), "word action bound"),
    (lambda: orbits_after_surgery(OrbitSpectrum(3, (), 4), two_letter_table(),
                                  2.5), "requested bound"),
    (lambda: belt_sphere_chords(two_letter_table(), 2.5), "requested bound"),
    (lambda: flexible_surgery_certificate(sample_certificate(3, 3), None, "3"),
     "half-dimension n"),
    (lambda: taut_les_bounds({0: "1"}, {}, 3), r"known_dims\[0\]"),
    (lambda: taut_les_bounds({0: 1.5}, {}, 3), r"known_dims\[0\]"),
    (lambda: taut_les_bounds({}, {"2": 1}, 3), "hstar_dims degree"),
    (lambda: boundedinfinite_distinguisher(
        LoopHomologyTable({0: 1}, {0: 1}), LoopHomologyTable({0: 1}, {0: 1}),
        {0: 1.5}, 3), r"hstar_dims\[0\]"),
], ids=["chain-count", "handle-n", "handle-index", "group-rank",
        "torsion-factor", "chord-front", "morse-index", "stabilize-sites",
        "loop-dims", "loop-base", "boundary-dim", "chord-degree",
        "orbit-degree", "profile-nodes", "profile-nodes-string",
        "chord-spectrum-n", "orbit-spectrum-n", "morse-dimension",
        "morse-chi", "stabilize-N", "subcritical-iterates", "ambient-k",
        "self-index-N", "cem-copies", "handle-bare-index", "distinguish-n",
        "flexible-support-n", "choose-Q-n", "chord-degree-down",
        "chord-degree-up", "chord-degree-ind", "taut-les-n",
        "omega-n", "semi-characteristic-n", "adc-support-n", "loops-n",
        "chord-action", "orbit-action", "word-action", "chord-spectrum-bound",
        "orbit-spectrum-bound", "stage-scale", "stage-bound", "rescale-s",
        "normalize-eps", "zigzag-action", "ambient-action", "subcritical-eps",
        "words-bound", "orbits-bound", "belt-bound", "flexible-n",
        "taut-les-string-dim", "taut-les-float-dim", "taut-les-degree",
        "loops-hy-dims"])
def test_api_rejects_non_integer_counts(call, field):
    # each used to be truncated by int() or kept: rank 2, n = 3, a 3-handle,
    # Z + Z/2, the chain (2, 12), front (1, 0, 0), indices (0, 1), one site,
    # dims {0: 1, 2: 2}, base {0: 1}, a 5-dimensional boundary, and degrees
    # of 1.5, and 2001 profile nodes; the spectra's half-dimension 3.5 and
    # the Morse dimension 1.5 and chi 0.0 were kept as floats; N = 1.5
    # failed as a chord degree of 1.0, iterates 2.0 as a TypeError, k = 1.5
    # as the new chord's degree, the index came out -0.0, the obstruction
    # False, and a bare 3.5 failed to unpack; a half-dimension of 3.5 fired
    # the distinguisher, allowed support up to 3.5, was blamed on Q's
    # dimension 1.5 or passed, and chord_degree(1.5, 0, 0) returned 0.5; an
    # action, bound, scale or eps of 0.1 became the Fraction
    # 3602879701896397/36028797018963968, where a rational is now refused
    # like any float (Decimal(4) was read as 4); the flexible pipeline's
    # n = "3" and a dimension "1" in taut_les_bounds ended in a TypeError,
    # and its dimension 1.5 came out as float windows
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        call()



def _one_chord(n=3):
    return ChordSpectrum(n, (ChordRecord("a", 0, 1),), 4)


@pytest.mark.parametrize("call, message", [
    (lambda: ChainComplex({0: -1}), "negative generator count at degree 0"),
    (lambda: ChainComplex({-1: 1}), "negative degrees are not supported"),
    (lambda: HandlePresentation(0, [0]),
     "half-dimension n must be >= 1, got 0"),
    (lambda: handlebody_boundary_homology(ChainComplex({0: 1}), 1),
     "total dimension must be >= 2, got 1"),
    (lambda: handlebody_boundary_homology(
        ChainComplex({0: 1, 3: 2, 4: 2}), 7, {3: 1, 4: 2}),
     "conflicting pairing ranks at degree 4"),
    (lambda: handlebody_boundary_homology(
        ChainComplex({0: 1, 3: 1}), 6).semi_characteristic(),
     "degree 2 undetermined"),
    (lambda: matrix_from_json(3), "matrix must be a list of rows"),
    (lambda: matrix_from_json([[1], [1, 2]]), "ragged matrix"),
    (lambda: _spectrum_fields(3, (), 0), "action bound must be positive"),
    (lambda: ChordRecord("a", 0, 1, (1, 0)),
     "chord 'a': front must be (D, U, ind)"),
    (lambda: MorseData("x", -1, 0, True, ()), "dimension must be >= 0"),
    (lambda: stabilize(_one_chord(), -1, choose_Q(3)), "N must be >= 0, got -1"),
    (lambda: stabilize(_one_chord(), 1, choose_Q(3), 0),
     "zigzag action scale must be positive"),
    (lambda: stabilize(_one_chord(), 1, choose_Q(3), sites=-1),
     "sites must be >= 0"),
    (lambda: subcritical_surgery(OrbitSpectrum(3, (), 4), 3, 1, -1, 1),
     "iterate horizon must be >= 0"),
    (lambda: subcritical_surgery(OrbitSpectrum(3, (), 4), 3, 1, 1, 0),
     "handle-shrinking parameter must be positive"),
    (lambda: add_surgery_chord(ChordSpectrum(4, (), 4), 1, 4),
     "new chord action must lie in (0, 4)"),
    (lambda: belt_sphere_chords(ChordSpectrum(1, (), 4)), "need n >= 2, got 1"),
    (lambda: Stage(0, 4, OrbitSpectrum(3, (), 4)),
     "stage scale must be positive"),
    (lambda: flexible_surgery_certificate(sample_certificate(3, 3), None, 4),
     "certificate has n = 3, expected 4"),
    (lambda: flexible_surgery_certificate(
        sample_certificate(3, 3), ChordSpectrum(4, (), 100), 3),
     "chord spectrum has n = 4, expected 3"),
    (lambda: mat_mul([[1, 2]], [[1]]), "shape mismatch"),
    (lambda: bareiss_determinant([[1, 2]]),
     "determinant needs a square matrix"),
    (lambda: semi_characteristic(_POINT, -1), "n must be >= 1, got -1"),
    (lambda: _coprime_base([0, 2]),
     "torsion factors must be >= 1, got [0, 2]"),
    (lambda: ChordRecord("a", 0, 1, null_homotopic="no"),
     "null_homotopic must be true or false, got 'no'"),
    (lambda: OrbitRecord(1, 1, contractible=0),
     "contractible must be true or false, got 0"),
    (lambda: OrbitSpectrum(3, (), 4, generic=None),
     "generic must be true or false, got None"),
    (lambda: MorseData(5, 1, 0, True, (0, 1)), "name must be a string, got 5"),
    (lambda: MorseData("x", 1, 0, "yes", (0, 1)),
     "orientable must be true or false, got 'yes'"),
    (lambda: HandlePresentation(3, [(0,)]),
     "handle 0 must be an index or an (index, label) pair, got (0,)"),
    (lambda: CheckResult.from_json({"value": "1", "tolerance": 0, "ok": True}),
     "CheckResult: value must be a number, got '1'"),
    (lambda: wedge_thickening(0), "need at least one wedge summand"),
    (lambda: wedge_spheres_boundary(0), "need at least one wedge summand"),
    (lambda: sample_certificate(3, 0), "need at least one stage"),
], ids=["chain-count", "chain-degree", "handle-n", "boundary-dim",
        "boundary-conflicting-ranks", "boundary-semi-undetermined",
        "matrix-not-list", "matrix-ragged", "spectrum-bound", "chord-front",
        "morse-dimension", "stabilize-N", "stabilize-eps", "stabilize-sites",
        "subcritical-iterates", "subcritical-eps", "ambient-action",
        "belt-n", "stage-scale", "flexible-certificate-n", "flexible-chords-n",
        "mat-mul-shape", "determinant-square", "semi-characteristic-n",
        "coprime-base-zero", "chord-null-homotopic", "orbit-contractible",
        "orbit-spectrum-generic", "morse-name", "morse-orientable",
        "handle-pair", "check-result-value", "wedge-thickening",
        "wedge-spheres", "sample-certificate"])
def test_api_validation_messages(call, message):
    # each raise is reachable from the API, and no other test runs it; the
    # four flags used to be stored and then fail their own record's reader,
    # and the one-entry handle ended in a bare "not enough values to unpack"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()

def test_api_reads_a_bare_handle_index_as_an_integer():
    # np.int64(3) used to fail to unpack and True became the label "hTrue.2"
    import numpy as np
    p = HandlePresentation(3, [0, np.int64(3), True])
    assert p.handles == ((0, "h0.0"), (3, "h3.1"), (1, "h1.2"))


def test_api_rejects_a_non_string_orbit_origin():
    # used to end in AttributeError: 'int' object has no attribute 'startswith'
    with pytest.raises(ValueError, match="orbit origin must be a string"):
        OrbitRecord(1, 1, 5)
