import ast
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import weinkit.snf as snf
from weinkit.graded import ChainComplex
from weinkit.handles import HandlePresentation
from weinkit.snf import (
    bareiss_determinant,
    identity_matrix,
    invariant_factors,
    is_unimodular,
    mat_mul,
    smith_normal_form,
)

from oracles import (
    conjugated_matrix,
    modular_invariant_factors,
    rational_rank,
    sympy_invariant_factors,
)
from test_acceptance import Budget


def test_identity_is_fixed():
    res = smith_normal_form(identity_matrix(3))
    assert res.d == identity_matrix(3)
    assert res.u == identity_matrix(3)
    assert res.v == identity_matrix(3)
    assert res.rank == 3
    assert res.invariant_factors == (1, 1, 1)


def test_hand_reduced_2x2():
    res = smith_normal_form([[2, 4], [6, 8]])
    assert res.d == [[2, 0], [0, 4]]
    assert res.invariant_factors == (2, 4)
    assert is_unimodular(res.u) and is_unimodular(res.v)


def test_zero_matrix():
    res = smith_normal_form([[0, 0], [0, 0]])
    assert res.d == [[0, 0], [0, 0]]
    assert res.u == identity_matrix(2)
    assert res.v == identity_matrix(2)
    assert res.rank == 0
    assert res.invariant_factors == ()


def test_empty_and_degenerate_shapes():
    assert smith_normal_form([]).rank == 0
    res = smith_normal_form([[0, 3, 0]])
    assert res.rank == 1
    assert res.invariant_factors == (3,)


def test_torsion_example():
    # diag(2, 6) presents Z/2 + Z/6; a scrambled presentation must recover it
    res = smith_normal_form([[2, 2], [2, 8]])
    assert res.invariant_factors == (2, 6)


matrix_strategy = st.integers(min_value=0, max_value=6).flatmap(
    lambda r: st.integers(min_value=0, max_value=6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-30, max_value=30),
                     min_size=c, max_size=c),
            min_size=r, max_size=r)))


@settings(max_examples=150, deadline=None)
@given(matrix_strategy)
def test_snf_rank_matches_row_reduction_oracle(m):
    res = smith_normal_form(m)
    assert res.rank == rational_rank(m)


@settings(max_examples=150, deadline=None)
@given(matrix_strategy)
def test_snf_torsion_matches_sympy_oracle(m):
    res = smith_normal_form(m)
    assert sorted(res.torsion_factors) == sympy_invariant_factors(m)


@settings(max_examples=100, deadline=None)
@given(matrix_strategy)
def test_snf_reconstruction(m):
    res = smith_normal_form(m)
    rows = [[int(x) for x in row] for row in m]
    assert mat_mul(mat_mul(res.u, rows), res.v) == res.d


def test_bareiss_against_permanent_cases():
    assert bareiss_determinant([]) == 1
    assert bareiss_determinant([[5]]) == 5
    assert bareiss_determinant([[1, 2], [3, 4]]) == -2
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert bareiss_determinant(m) == int(sympy.Matrix(m).det())


def _rows(n, c, entries):
    return st.lists(st.lists(st.sampled_from(entries), min_size=c, max_size=c),
                    min_size=n, max_size=n)


# mostly 0, so that most rows skip a pivot; the 2s and 3s make pivots
# that differ from the previous one, so those rows must be rescaled
SPARSE_SMALL = (0, 0, 0, 0, 0, 0, 1, -1, 2, -2, 3, -3)


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=12).flatmap(
    lambda n: _rows(n, n, SPARSE_SMALL)))
def test_bareiss_sparse_matches_sympy(m):
    assert bareiss_determinant(m) == (int(sympy.Matrix(m).det()) if m else 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=16).flatmap(
    lambda r: st.integers(min_value=0, max_value=16).flatmap(
        lambda c: _rows(r, c, (0, 0, 0, 0, 0, 1, -1, 1, -1, 2)))))
def test_snf_sparse_unit_matches_sympy_oracle(m):
    res = smith_normal_form(m)
    assert sorted(res.torsion_factors) == sympy_invariant_factors(m)
    assert res.rank == rational_rank(m)


def _pinned_shape(rng, cls):
    """(rows, cols, rank, unit share, steps per dimension) of one matrix
    in a class of the benchmark's algebra workload."""
    if cls == "sparse-unit":
        r, c = rng.randint(18, 24), rng.randint(18, 24)
        return r, c, rng.randint(min(r, c) // 3, min(r, c) // 2), 0.9, 1
    if cls == "full-rank":
        n = rng.randint(14, 16)
        return n, n, n - rng.randint(0, 1), 0.9, 1
    if cls == "dense-torsion":
        n = rng.randint(8, 10)
        return n, n, n - rng.randint(0, 1), 0.6, 2
    r, c = rng.randint(4, 10), rng.randint(4, 10)
    return r, c, rng.randint(0, min(r, c)), 0.6, 2


# sha256 of the repr of (d, u, v, rank, invariant_factors) over 50 seeded
# matrices per class.  Any change to the pivot rule, the least-remainder
# steps, the sign normalization or the pivots-first order of
# `_sparse_factors` changes U and V, and so these digests.
PINNED_SNF = {
    "sparse-unit": "17107654249c12a0d4f6db0e3d293d5a0e6abe31262b06c389797d4cbeac31f5",
    "full-rank": "0f75d900b0c4b5d56e97aac20a684b00099e618b05bf47121b2e329ac7dfd613",
    "dense-torsion": "a69c650deaadb8007abf81adacc47ba2fff8242241ed2cfc811da7be202f23d9",
    "rectangular": "d72b5420a11f505dd052998ed67c5eaa1721400ff78dfc974a7b75733879dea3",
}


@pytest.mark.parametrize("cls", sorted(PINNED_SNF))
def test_results_are_pinned(cls):
    rng = random.Random(f"snf-pin:{cls}")
    digest = hashlib.sha256()
    for _ in range(50):
        m, factors = conjugated_matrix(rng, *_pinned_shape(rng, cls))
        res = smith_normal_form(m)
        assert res.invariant_factors == tuple(factors)
        digest.update(repr((res.d, res.u, res.v, res.rank,
                            res.invariant_factors)).encode())
    assert digest.hexdigest() == PINNED_SNF[cls]


NOT_AN_INTEGER = "not an integer"


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: smith_normal_form([[2.7, 0], [0, 3.9]]),
                 NOT_AN_INTEGER, id="snf"),
    pytest.param(lambda: bareiss_determinant([[1.5, 0], [0, 1]]),
                 NOT_AN_INTEGER, id="det"),
    pytest.param(lambda: is_unimodular([[1, 0], [0, 1.0]]),
                 NOT_AN_INTEGER, id="unimodular"),
    pytest.param(lambda: smith_normal_form(np.array([[1, 0], [0, 0.5]])),
                 NOT_AN_INTEGER, id="float-array"),
    pytest.param(lambda: smith_normal_form([[1, "2"]]),
                 NOT_AN_INTEGER, id="string"),
    pytest.param(lambda: invariant_factors([[1, 0.5]]),
                 NOT_AN_INTEGER, id="invariant-factors"),
    # a row that is not a sequence, under each caller's prefix
    pytest.param(lambda: smith_normal_form([1, 2, 3]),
                 "^matrix row 0 = 1 is not a sequence$", id="flat-list"),
    pytest.param(lambda: smith_normal_form(np.array([1, 2, 3])),
                 "^matrix row 0 = .+ is not a sequence$", id="flat-array"),
    pytest.param(lambda: ChainComplex({0: 1, 1: 1}, {1: [2]}),
                 "^boundary d_1: matrix row 0 = 2 is not a sequence$",
                 id="boundary-row"),
    pytest.param(lambda: HandlePresentation(2, [0, 2], intersection_form=[5]),
                 "^intersection form: matrix row 0 = 5 is not a sequence$",
                 id="intersection-form-row"),
    pytest.param(lambda: ChainComplex({0: 1, 1: 1}, {1: 2}),
                 "^boundary d_1: matrix 2 is not a sequence of rows$",
                 id="boundary-scalar"),
    # a dict or set row used to be read as its keys
    pytest.param(lambda: ChainComplex({0: 1, 1: 1}, {1: [{7: 1}]}),
                 r"^boundary d_1: matrix row 0 = \{7: 1\} is not a sequence$",
                 id="boundary-dict-row"),
    pytest.param(lambda: smith_normal_form([{3: "x"}, {5: 1}]),
                 r"^matrix row 0 = \{3: 'x'\} is not a sequence$",
                 id="dict-rows"),
    pytest.param(lambda: invariant_factors([{1, 2}]),
                 r"^matrix row 0 = \{1, 2\} is not a sequence$",
                 id="set-row"),
])
def test_non_integer_entries_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_integer_arrays_accepted():
    want = smith_normal_form([[2, 4], [6, 8]])
    for a in (np.array([[2, 4], [6, 8]]),
              np.array([[2, 4], [6, 8]], dtype=np.int8),
              np.array([[2, 4], [6, 8]], dtype=object)):
        assert smith_normal_form(a) == want
    assert bareiss_determinant(np.array([[1, 2], [3, 4]])) == -2
    # zero rows keep the column count: V is 3 x 3
    res = smith_normal_form(np.zeros((0, 3), dtype=int))
    assert (res.d, res.u, res.v, res.rank) == ([], [], identity_matrix(3), 0)


def test_ragged_rejected():
    with pytest.raises(ValueError, match="ragged"):
        smith_normal_form([[1, 2], [3]])


def _doubled_kernel_column(core):
    """The core, then the last column of V doubled: for [[2, 3]] that is a
    kernel column, so U*A*V = D still holds and only det V = +-1 can tell."""
    def doubled(rows, u=None, v=None):
        factors = core(rows, u, v)
        for row in v:
            row[-1] *= 2
        return factors
    return doubled


def test_certificate_catches_a_non_unimodular_step(monkeypatch):
    monkeypatch.setattr(snf, "_sparse_factors",
                        _doubled_kernel_column(snf._sparse_factors))
    with pytest.raises(AssertionError, match="not unimodular"):
        smith_normal_form([[2, 3]])


def test_certificate_survives_optimized_mode():
    script = (
        "import weinkit.snf as snf\n"
        "from test_snf import _doubled_kernel_column\n"
        "snf._sparse_factors = _doubled_kernel_column(snf._sparse_factors)\n"
        "try:\n"
        "    snf.smith_normal_form([[2, 3]])\n"
        "except AssertionError as e:\n"
        "    print(e)\n")
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(here.parent / "src"), str(here)]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert "not unimodular" in out.stdout


# invariant_factors: the same elimination without U and V, and its own
# checks, which must agree with smith_normal_form on rank and factors


def _edge_and_conjugated_matrices():
    """Empty, 0 x n, n x 0 and all-zero matrices, then rectangular,
    rank-deficient and torsion-heavy conjugated ones."""
    yield from ([], [[]], [[], [], []], [[0] * 4] * 3, [[0]], [[7]],
                [[0, 3, 0]], [[2], [4], [6]])
    rng = random.Random("invariant-factors")
    for _ in range(60):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        rank = rng.randint(0, min(rows, cols))
        unit_share = rng.choice((0.0, 0.3, 0.9))
        yield conjugated_matrix(rng, rows, cols, rank, unit_share,
                                rng.randint(1, 3), coeffs=(-2, -1, 1, 2))[0]


def _check_invariant_factors(m):
    res = smith_normal_form(m)
    rank, factors = invariant_factors(m)
    assert (rank, factors) == (res.rank, res.invariant_factors)
    assert rank == rational_rank(m)
    assert sorted(f for f in factors if f >= 2) == sympy_invariant_factors(m)


@pytest.mark.parametrize("m", list(_edge_and_conjugated_matrices()))
def test_invariant_factors_match_smith_normal_form(m):
    _check_invariant_factors(m)


@settings(max_examples=150, deadline=None)
@given(matrix_strategy)
def test_invariant_factors_match_oracles(m):
    _check_invariant_factors(m)


# Each case corrupts the elimination's output after a correct run: the
# input, the factors to overwrite, the number of factors to keep (None:
# all), and the check that must fail.
CORRUPTIONS = {
    # (1, 6) -> (1, 3): still a chain, 3 divides det = 6 but is not |det|
    "wrong-factor": ([[1, 0], [0, 6]], {1: 3}, None, "!= [|]det[|]"),
    # (2, 4) -> (2, 8): a chain, but 16 does not divide the minor -8
    "factor-past-minor": ([[2, 4, 0], [6, 8, 0]], {1: 8}, None,
                          "does not divide"),
    "broken-chain": ([[2, 0], [0, 3]], {0: 2, 1: 3}, None,
                     "divisibility chain"),
    "nonpositive-factor": ([[2, 0], [0, 4]], {0: -2}, None,
                           "nonpositive factor"),
    # (1, 2) -> (1,): a consistent chain of rank 1, only the Bareiss rank
    # can tell
    "wrong-rank": ([[1, 2], [3, 4], [5, 6]], {}, 1, "rank differs"),
}


def _corrupted_core(edits, keep):
    core = snf._sparse_factors

    def corrupted(rows):
        factors = list(core(rows))
        for i, x in edits.items():
            factors[i] = x
        return tuple(factors[:keep])
    return corrupted


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_invariant_factors_postconditions_catch_a_corrupted_core(
        case, monkeypatch):
    m, edits, keep, message = CORRUPTIONS[case]
    monkeypatch.setattr(snf, "_sparse_factors", _corrupted_core(edits, keep))
    with pytest.raises(AssertionError, match=message):
        invariant_factors(m)


def test_invariant_factors_postconditions_survive_optimized_mode():
    script = (
        "import re, weinkit.snf as snf\n"
        "from test_snf import CORRUPTIONS, _corrupted_core\n"
        "core = snf._sparse_factors\n"
        "for case, (m, edits, keep, message) in sorted(CORRUPTIONS.items()):\n"
        "    snf._sparse_factors = _corrupted_core(edits, keep)\n"
        "    try:\n"
        "        snf.invariant_factors(m)\n"
        "    except AssertionError as e:\n"
        "        print(case, bool(re.search(message, str(e))))\n"
        "    else:\n"
        "        print(case, 'passed')\n"
        "    snf._sparse_factors = core\n")
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(here.parent / "src"), str(here)]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [
        word for case in sorted(CORRUPTIONS) for word in (case, "True")]


@pytest.mark.parametrize("entry, budget", [
    pytest.param(invariant_factors, 2.0, id="invariant_factors"),
    pytest.param(smith_normal_form, 5.0, id="smith_normal_form"),
])
def test_unimodular_conjugates_in_time(entry, budget):
    # conjugates of a diagonal chain by 2n (20 x 20) and 3n (16 x 16)
    # elementary +-1 operations, on which the dense gcd elimination took
    # up to a minute.  Medians on 2 vCPU: 0.55 s for invariant_factors,
    # 1.0-1.6 s for smith_normal_form, which also builds and checks U, V
    rng = random.Random("unimodular-conjugates")
    cases = ([conjugated_matrix(rng, 20, 20, 20, 0.3, 2) for _ in range(30)]
             + [conjugated_matrix(rng, 16, 16, rng.randint(14, 16), 0.3, 3)
                for _ in range(200)])
    with Budget(f"{entry.__name__} of 230 unimodular conjugates", budget):
        results = [entry(m) for m, _ in cases]
    for (m, factors), got in zip(cases, results):
        if entry is smith_normal_form:
            got = got.rank, got.invariant_factors
        assert got == (len(factors), tuple(factors))


@pytest.mark.parametrize("n", [32, 40, 48])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_smith_normal_form_of_dense_maps_in_time(n, seed):
    # a dense +-20 map: the dense gcd elimination ran past 30 s at n = 32
    # (seed 2); the sparse one with U and V takes about 0.3 s at n = 48
    rng = random.Random(seed)
    a = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
    with Budget(f"smith_normal_form of a dense {n}x{n} map, seed {seed}",
                1.0):
        res = smith_normal_form(a)
    assert res.rank == n
    assert list(res.torsion_factors) == modular_invariant_factors(a)


@pytest.mark.parametrize("module", ["graded.py", "handles.py"])
def test_homology_reads_invariant_factors_only(module):
    # the homology path builds no transforms: no smith_normal_form there
    tree = ast.parse((Path(snf.__file__).parent / module).read_text())
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)}
    assert "invariant_factors" in names
    assert "smith_normal_form" not in names
