import random
import time
from contextlib import contextmanager

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from weinkit.graded import (
    ChainComplex,
    GradedGroup,
    cancel_summand,
    cohomology_from_homology,
    euler_characteristic,
    homology,
    homology_from_cohomology,
    invariant_factor_chain,
    semi_characteristic,
)
from weinkit.serialize import SchemaError

from oracles import (
    conjugated_complex,
    first_difference_by_scan,
    graded_parts,
    homology_ranks_by_row_reduction,
    modular_invariant_factors,
    rational_rank,
    reindexed_parts,
    semi_characteristic_dense,
    sympy_invariant_factors,
)
from test_acceptance import Budget


def gg(d):
    return GradedGroup.from_dict(d)


class TestCanonicalForm:
    def test_merge_coprime(self):
        assert gg({0: (0, [2, 3])}) == gg({0: (0, [6])})

    def test_chain_ordering(self):
        assert gg({0: (0, [4, 2])}).torsion(0) == (2, 4)

    def test_drop_trivial(self):
        assert gg({0: (0, [1, 1])}) == GradedGroup.zero()
        assert gg({0: (0, [])}) == gg({1: (0, [1])})

    def test_mixed(self):
        # Z/2 + Z/4 + Z/3 = Z/2 + Z/12
        assert gg({0: (0, [2, 4, 3])}).torsion(0) == (2, 12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            gg({0: (-1, [])})
        with pytest.raises(ValueError):
            invariant_factor_chain([0])

    @pytest.mark.parametrize("parts, degree", [
        (((0, 1, (4, 2)),), 0),               # chain out of order
        (((0, 1, (2, 3)),), 0),               # 2 does not divide 3
        (((1, 0, (1, 2)),), 1),               # a factor of 1
        (((2, 0, (-2,)),), 2),                # a negative factor
        (((2, -1, ()),), 2),                  # negative rank
        (((3, 0, ()),), 3),                   # an empty part
        (((0, 1, ()), (0, 2, ())), 0),        # a repeated degree
        (((1, 1, ()), (0, 1, ())), 0),        # unsorted degrees
        (((0, 1, ()), (2, 1, [2])), 2),       # a chain that is no tuple
        (((0, 1.0, ()),), 0),                 # a rank that is no int
    ])
    def test_constructor_refuses_parts_that_are_not_canonical(self, parts,
                                                              degree):
        with pytest.raises(ValueError, match=rf"at degree {degree} is not "
                           r"canonical; GradedGroup\.from_dict"):
            GradedGroup(parts)

    @pytest.mark.parametrize("parts", [[(0, 1, ())], ((0, 1),), (None,)])
    def test_constructor_refuses_parts_of_another_shape(self, parts):
        with pytest.raises(ValueError, match=r"GradedGroup\.from_dict"):
            GradedGroup(parts)

    def test_constructor_takes_canonical_parts(self):
        # what from_dict builds, and the groups the benchmark builds
        # directly: oracle.graded_parts and ((0, 1, ()), (n, i, ()))
        rng = random.Random(32)
        for _ in range(300):
            spec = {k: (rng.randint(0, 3),
                        [rng.choice((1, 2, 3, 4, 6, 9, 10, 12, 25))
                         for _ in range(rng.randint(0, 3))])
                    for k in range(rng.randint(-2, 0), rng.randint(0, 4))}
            g = gg(spec)
            assert GradedGroup(g.parts) == g
            assert GradedGroup(graded_parts(spec)) == g
        for n in range(3, 7):
            for i in range(1, 7):
                parts = ((0, 1, ()), (n, i, ()))
                assert GradedGroup(parts).parts == parts
        assert GradedGroup(()) == GradedGroup.zero()

    def test_algebra_builds_without_the_check(self, monkeypatch):
        def check(part, after):
            raise AssertionError("canonical parts checked again")

        monkeypatch.setattr("weinkit.graded._canonical_part", check)
        g = gg({0: (1, [4, 2]), 2: (0, [3])})
        assert g.reindex(1, -1).parts == ((-1, 0, (3,)), (1, 1, (2, 4)))
        assert g.direct_sum(g).torsion(0) == (2, 2, 4, 4)
        assert GradedGroup.zero().parts == ()


class TestHomology:
    def test_sphere_complex(self):
        for n in (2, 3, 7):
            c = ChainComplex({0: 1, n: 1})
            assert homology(c) == gg({0: (1, []), n: (1, [])})

    def test_degree_two_attaching(self):
        c = ChainComplex({0: 1, 1: 1}, {1: [[2]]})
        h = homology(c)
        assert h.torsion(0) == (2,)
        assert h.rank(0) == 0
        assert h.rank(1) == 0

    def test_wedge_thickening_complex(self):
        for i in (1, 4, 10):
            c = ChainComplex({0: 1, 2: i, 3: i})
            assert homology(c) == gg({0: (1, []), 2: (i, []), 3: (i, [])})

    def test_rejects_non_complex(self):
        with pytest.raises(ValueError):
            ChainComplex({0: 1, 1: 1, 2: 1}, {1: [[1]], 2: [[1]]})

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ChainComplex({0: 1, 1: 2}, {1: [[1]]})

    def test_rejects_non_integer_entries(self):
        # 2.5 used to be truncated to 2, giving Z/2 in degree 0
        with pytest.raises(ValueError, match=r"d_1: .*2\.5.*not an integer"):
            ChainComplex({0: 1, 1: 1}, {1: [[2.5]]})

    def test_rejects_ragged_boundary(self):
        with pytest.raises(ValueError, match="d_2: ragged"):
            ChainComplex({1: 2, 2: 2}, {2: [[1, 0], [0]]})

    def test_sparse_unit_complex_of_64_generators(self):
        # degrees 2 and 3 have 64 generators each; conjugated by one
        # elementary +-1 operation per generator, as the benchmark's
        # sparse class is
        rng = random.Random("homology-64")
        dims, maps, parts = conjugated_complex(
            rng, {0: 1, 1: 0, 2: 2, 3: 2, 4: 1, 5: 1},
            {1: 24, 2: 32, 3: 30, 4: 32, 5: 24}, 0.9, 1)
        assert max(dims.values()) == 64
        cx = ChainComplex(dims, maps)
        with Budget("homology of a sparse unit complex, n = 64", 0.2):
            h = homology(cx)
        assert h.parts == parts

    @pytest.mark.parametrize("n", [24, 28, 32, 40, 48])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dense_map_with_huge_torsion(self, n, seed):
        # a dense +-20 map: the dense gcd elimination took over 20 s at
        # n = 32 (seed 2); the sparse one takes about 0.1 s at n = 48
        rng = random.Random(seed)
        a = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
        with Budget(f"homology of a dense {n}x{n} map, seed {seed}", 1.0):
            h = homology(ChainComplex({0: n, 1: n}, {1: a}))
        want = modular_invariant_factors(a)
        if n <= 28:  # sympy's Smith form takes seconds beyond
            assert want == sympy_invariant_factors(a)
        assert list(h.torsion(0)) == want
        assert h.rank(0) == h.rank(1) == n - rational_rank(a)

    def test_projective_plane_like(self):
        # one cell each in degrees 0,1,2 with d2 = [2], d1 = 0
        c = ChainComplex({0: 1, 1: 1, 2: 1}, {2: [[2]]})
        h = homology(c)
        assert h == gg({0: (1, []), 1: (0, [2])})


complex_strategy = st.integers(min_value=1, max_value=4).flatmap(
    lambda top: st.tuples(
        st.lists(st.integers(min_value=0, max_value=5),
                 min_size=top + 1, max_size=top + 1),
        st.randoms(use_true_random=False)))


def random_complex(dims, rng):
    """Build a valid complex: random d_top, then d_{k} = 0 unless compatible.

    To keep dd = 0 while staying random, alternate degrees get random
    matrices and the ones between are zero.
    """
    boundaries = {}
    for k in range(1, len(dims), 2):
        rows, cols = dims[k - 1], dims[k]
        if rows and cols:
            boundaries[k] = [[rng.randint(-4, 4) for _ in range(cols)]
                             for _ in range(rows)]
    cdims = {k: n for k, n in enumerate(dims)}
    return ChainComplex(cdims, boundaries)


@settings(max_examples=80, deadline=None)
@given(complex_strategy)
def test_betti_matches_row_reduction_oracle(args):
    dims, rng = args
    c = random_complex(dims, rng)
    h = homology(c)
    oracle = homology_ranks_by_row_reduction(
        {k: c.dim(k) for k in range(len(dims))},
        {k: m for k, m in c.boundaries.items()})
    for k in range(len(dims)):
        assert h.rank(k) == oracle.get(k, 0)


@settings(max_examples=80, deadline=None)
@given(complex_strategy)
def test_euler_characteristic_descends_to_homology(args):
    dims, rng = args
    c = random_complex(dims, rng)
    assert c.euler_characteristic() == euler_characteristic(homology(c))


class TestCancelSummand:
    def test_equal_inputs_free_summand(self):
        apc = gg({0: (2, [2])})
        a, b, iso = cancel_summand(apc, apc, gg({0: (1, [])}))
        assert a == b == gg({0: (1, [2])})
        assert iso

    def test_detects_non_isomorphic_complements(self):
        a, b, iso = cancel_summand(gg({0: (3, [])}), gg({0: (2, [3])}),
                                   gg({0: (2, [])}))
        assert a == gg({0: (1, [])})
        assert b == gg({0: (0, [3])})
        assert not iso

    def test_torsion_summand(self):
        apc = gg({0: (1, [4, 2])})
        a, b, iso = cancel_summand(apc, apc, gg({0: (0, [2])}))
        assert iso
        assert a == gg({0: (1, [4])})

    def test_rejects_non_summand(self):
        with pytest.raises(ValueError):
            cancel_summand(gg({0: (0, [4])}), gg({0: (0, [4])}),
                           gg({0: (0, [2])}))
        with pytest.raises(ValueError):
            cancel_summand(gg({0: (1, [])}), gg({0: (1, [])}),
                           gg({0: (2, [])}))


# Known safe primes p, with (p - 1) / 2 prime too, so Pollard's p - 1
# method gets no purchase: the largest below 2^61, 2^64, 2^70 and 2^89,
# and the largest below 3 * 2^68, far from the 2^70 one so that Fermat's
# method gets none either.  Factoring their products takes seconds to
# hours; canonicalization must not try.
P61, P64, P89 = 2 ** 61 - 2373, 2 ** 64 - 1469, 2 ** 89 - 3285
P70, Q70 = 2 ** 70 - 15581, 3 * 2 ** 68 - 8449
LARGE_PRIME_BUDGET_S = 0.1


@contextmanager
def large_prime_budget():
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < LARGE_PRIME_BUDGET_S, (
        f"{elapsed:.3f}s over the {LARGE_PRIME_BUDGET_S}s budget")


class TestLargePrimes:
    def test_known_safe_primes(self):
        for p in (P61, P64, P89, P70, Q70):
            assert sympy.isprime(p) and sympy.isprime((p - 1) // 2)
        assert P70.bit_length() == Q70.bit_length() == 70

    def test_from_dict_semiprime(self):
        with large_prime_budget():
            g = gg({0: (0, [P70 * Q70])})
        assert g.torsion(0) == (P70 * Q70,)

    def test_from_dict_regroups_shared_primes(self):
        # Z/pq + Z/p + Z/q^2 = Z/pq + Z/pq^2
        with large_prime_budget():
            g = gg({0: (1, [P64 * P89, P64, P89 ** 2])})
            assert g == gg({0: (1, [P64 * P89 ** 2, P64 * P89])})
        assert g.torsion(0) == (P64 * P89, P64 * P89 ** 2)

    def test_cancel_summand(self):
        with large_prime_budget():
            g = gg({0: (1, [P61 * P89]), 1: (0, [P61, P61 ** 2 * P70])})
            g2 = gg({0: (1, [P61 ** 2 * P89]), 1: (0, [P64])})
            c = gg({0: (0, [P61 * P64, P89 * P70]), 1: (2, [P64 ** 2])})
            a, b, iso = cancel_summand(g.direct_sum(c), g2.direct_sum(c), c)
        assert a == g
        assert b == g2
        assert not iso

    def test_cancel_rejects_non_summand(self):
        with large_prime_budget():
            total = gg({0: (0, [P61 * Q70, P61])})
            with pytest.raises(ValueError, match="not a direct summand"):
                cancel_summand(total, total, gg({0: (0, [P61 ** 2])}))


chain_factor = st.one_of(st.integers(min_value=1, max_value=360),
                         st.sampled_from([P61, 2 * P61, P61 * P89, P70 * 12]))


# budget: 1 s per example, the sympy oracle included
@settings(max_examples=100, deadline=1000)
@given(st.lists(chain_factor, max_size=6))
def test_invariant_factor_chain_matches_sympy_snf(fs):
    diag = [[f if i == j else 0 for j in range(len(fs))]
            for i, f in enumerate(fs)]
    assert list(invariant_factor_chain(fs)) == sympy_invariant_factors(diag)


graded_strategy = st.dictionaries(
    st.integers(min_value=0, max_value=5),
    st.tuples(st.integers(min_value=0, max_value=3),
              st.lists(st.integers(min_value=2, max_value=12), max_size=3)),
    max_size=4).map(GradedGroup.from_dict)


@settings(max_examples=120, deadline=None)
@given(graded_strategy, graded_strategy)
def test_cancel_summand_isomorphic_inputs(a, c):
    apc = a.direct_sum(c)
    left, right, iso = cancel_summand(apc, apc, c)
    assert iso
    assert left == right == a


@settings(max_examples=100, deadline=None)
@given(graded_strategy)
def test_universal_coefficients_roundtrip(h):
    assert homology_from_cohomology(cohomology_from_homology(h)) == h


def test_universal_coefficients_shifts_torsion():
    h = gg({0: (1, []), 1: (0, [2]), 2: (1, [])})
    hstar = cohomology_from_homology(h)
    assert hstar.torsion(2) == (2,)
    assert hstar.torsion(1) == ()
    assert hstar.rank(0) == 1 and hstar.rank(2) == 1


# negative degrees and torsion one past the semi-characteristic window too
wide_graded = st.dictionaries(
    st.integers(min_value=-3, max_value=9),
    st.tuples(st.integers(min_value=0, max_value=2),
              st.lists(st.sampled_from([2, 3, 4, 6, 9]), max_size=2)),
    max_size=5).map(GradedGroup.from_dict)


class TestDegreeOperations:
    def test_at_reads_rank_and_chain(self):
        g = gg({1: (2, [4, 2]), 3: (0, [3])})
        assert g.at(1) == (2, (2, 4))
        assert g.at(3) == (0, (3,))
        assert g.at(2) == (0, ())
        assert (g.rank(1), g.torsion(1)) == g.at(1)

    def test_reindex_relabels_without_canonicalizing(self, monkeypatch):
        g = gg({0: (1, []), 2: (0, [2, 4])})

        def refactor(factors):
            raise AssertionError("reindex rebuilt a torsion chain")

        monkeypatch.setattr("weinkit.graded.invariant_factor_chain", refactor)
        assert g.reindex(4, -1).parts == ((2, 0, (2, 4)), (4, 1, ()))
        assert g.reindex(-1).parts == ((-1, 1, ()), (1, 0, (2, 4)))

    @pytest.mark.parametrize("sign", [0, 2, -2])
    def test_reindex_sign_is_one_or_minus_one(self, sign):
        with pytest.raises(ValueError, match="sign must be"):
            gg({0: (1, [])}).reindex(1, sign)

    def test_reindex_shift_is_an_integer(self):
        with pytest.raises(ValueError, match="degree shift must be an integer"):
            gg({0: (1, [])}).reindex(1.5)

    def test_first_difference(self):
        a = gg({0: (1, []), 2: (0, [2]), 5: (1, [])})
        assert a.first_difference(a) is None
        assert a.first_difference(gg({0: (1, []), 2: (0, [4])})) == 2
        assert a.first_difference(GradedGroup.zero()) == 0


@settings(max_examples=150, deadline=None)
@given(wide_graded, st.integers(min_value=-10, max_value=10),
       st.sampled_from([1, -1]))
def test_reindex_matches_from_dict_relabelling(g, shift, sign):
    assert g.reindex(shift, sign) == GradedGroup.from_dict(
        reindexed_parts(g, shift, sign))


@settings(max_examples=150, deadline=None)
@given(wide_graded, wide_graded)
def test_first_difference_matches_sorted_union_scan(a, c):
    # a against a + c differs only where c is supported, or nowhere
    for b in (a, c, a.direct_sum(c)):
        assert a.first_difference(b) == first_difference_by_scan(a, b)
        assert b.first_difference(a) == first_difference_by_scan(b, a)


@settings(max_examples=200, deadline=None)
@given(wide_graded, st.integers(min_value=0, max_value=7),
       st.sampled_from(["Q", "F2"]))
def test_semi_characteristic_matches_dense_sum(g, half, coeff):
    n = 2 * half + 1
    assert semi_characteristic(g, n, coeff) == semi_characteristic_dense(
        g, n, coeff)


class TestCharacteristics:
    def test_even_sphere(self):
        assert euler_characteristic(gg({0: (1, []), 4: (1, [])})) == 2

    def test_point(self):
        pt = gg({0: (1, [])})
        assert euler_characteristic(pt) == 1
        assert semi_characteristic(pt, 1) == 1
        assert semi_characteristic(pt, 5) == 1

    def test_semi_characteristic_rejects_even(self):
        with pytest.raises(ValueError):
            semi_characteristic(gg({0: (1, [])}), 4)

    def test_semi_characteristic_rejects_unknown_field_on_zero(self):
        with pytest.raises(ValueError, match="unsupported coefficient field"):
            semi_characteristic(GradedGroup.zero(), 3, "F3")

    def test_semi_characteristic_walks_the_support_not_the_range(self):
        # the range [0, 5000000] used to be walked degree by degree, some
        # seconds per call
        n = 10 ** 7 + 1
        with Budget(f"semi-characteristic at n = {n}", 1.0):
            assert semi_characteristic(gg({0: (1, [])}), n) == 1
            # over F2: 1 in degree 0, 1 + 1 from Z/2 in degrees 6 and 7
            assert semi_characteristic(gg({0: (1, []), 6: (0, [2])}), n,
                                       "F2") == 1
            assert semi_characteristic(
                gg({0: (1, []), 6: (0, [2])}), 13, "F2") == 0

    def test_wedge_boundary_parity(self):
        # closed 5-manifold with H_0 = Z, H_2 = Z^i, H_3 = Z^i, H_5 = Z
        for i in range(1, 11):
            h = gg({0: (1, []), 2: (i, []), 3: (i, []), 5: (1, [])})
            assert semi_characteristic(h, 5) == (1 + i) % 2

    def test_f2_dimensions_lift_torsion(self):
        # RP^2: H_0 = Z, H_1 = Z/2; over F2 dims are 1,1,1
        h = gg({0: (1, []), 1: (0, [2])})
        assert [h.dim(k, "F2") for k in range(3)] == [1, 1, 1]
        assert [h.dim(k, "Q") for k in range(3)] == [1, 0, 0]
        # every nonzero field dimension sits in the field support
        assert h.field_support == (0, 1, 2)
        assert gg({3: (1, []), 5: (0, [3])}).field_support == (3, 4, 5, 6)
        assert GradedGroup.zero().field_support == ()
        assert GradedGroup.zero().describe() == "0"


def test_json_roundtrips():
    h = gg({0: (1, []), 3: (2, [2, 4])})
    assert GradedGroup.from_json(h.to_json()) == h
    c = ChainComplex({0: 1, 1: 2, 2: 1}, {2: [[3], [0]]})
    c2 = ChainComplex.from_json(c.to_json())
    assert c2.dims == c.dims and c2.boundaries == c.boundaries


@pytest.mark.parametrize("entry", [[1], 3, "Z", None])
def test_from_json_rejects_non_object_degree_entry(entry):
    with pytest.raises(SchemaError, match="degree 0 entry must be an object"):
        GradedGroup.from_json({"schema": 1, "graded_group": {"0": entry}})


def test_from_json_prefixes_constructor_errors():
    doc = {"schema": 1, "graded_group": {"0": {"rank": -1}}}
    with pytest.raises(SchemaError,
                       match="^GradedGroup: negative rank at degree 0$"):
        GradedGroup.from_json(doc)


@pytest.mark.parametrize("torsion", ["16", 16, {"16": 1}])
def test_from_json_rejects_non_list_torsion(torsion):
    # a string used to be read digit by digit: "16" became Z/6
    doc = {"schema": 1, "graded_group": {"0": {"rank": 0, "torsion": torsion}}}
    with pytest.raises(SchemaError, match="degree 0 torsion must be a list"):
        GradedGroup.from_json(doc)


@pytest.mark.parametrize("entry, what", [
    ({"rank": 1.7}, "rank"), ({"rank": True}, "rank"), ({"rank": "1.0"}, "rank"),
    ({"rank": 0, "torsion": [2.9]}, "torsion factor"),
    ({"rank": 0, "torsion": [False]}, "torsion factor"),
])
def test_group_from_json_rejects_non_integers(entry, what):
    # 1.7 used to read as rank 1 and [2.9] as Z/2
    doc = {"schema": 1, "graded_group": {"0": entry}}
    with pytest.raises(SchemaError, match=f"degree 0 {what} must be an integer"):
        GradedGroup.from_json(doc)


def test_group_from_json_reads_integer_strings():
    doc = {"schema": 1, "graded_group": {"-1": {"rank": "2", "torsion": ["4", 6]}}}
    assert GradedGroup.from_json(doc) == gg({-1: (2, [2, 12])})


@pytest.mark.parametrize("dims, boundaries", [
    ({"0": 1.9}, {}), ({"0": 1, "1.5": 1}, {}), ({"0": 1, "1": 1}, {"1": [[1.5]]}),
    ({"0": 1, "1": 1}, {"1": [[True]]}),
])
def test_complex_from_json_rejects_non_integers(dims, boundaries):
    # a dims entry of 1.9 used to read as 1
    doc = {"schema": 1, "dims": dims, "boundaries": boundaries}
    with pytest.raises(SchemaError, match="must be an integer"):
        ChainComplex.from_json(doc)


@pytest.mark.parametrize("boundaries", [[1], "1", 0])
def test_complex_from_json_rejects_non_object_boundaries(boundaries):
    doc = {"schema": 1, "dims": {"0": 1, "1": 1}, "boundaries": boundaries}
    with pytest.raises(SchemaError, match="'boundaries' must be an object"):
        ChainComplex.from_json(doc)


def test_direct_sum_of_complexes_adds_homology():
    a = ChainComplex({0: 1, 1: 1}, {1: [[2]]})
    b = ChainComplex({0: 1, 2: 3})
    h = homology(a.direct_sum(b))
    assert h == homology(a).direct_sum(homology(b))
