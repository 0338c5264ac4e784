"""Vanishing-formula profiles, exact-sequence windows, distinguishers."""

import pytest
from hypothesis import given, settings, strategies as st

from weinkit.floer import (
    INDISTINGUISHABLE,
    LoopHomologyTable,
    SHPlusProfile,
    Verdict,
    boundedinfinite_distinguisher,
    cem_flexible_obstruction,
    distinguish_flexible_fillings,
    flexible_support_test,
    nearby_conclusion,
    sh_plus_from_vanishing,
    sh_plus_reindex_back,
    sh_support_adc_obstruction,
    taut_les_bounds,
    wh_plus_from_vanishing,
    wrapped_loop_grading,
)
from weinkit.graded import GradedGroup
from weinkit.serialize import SchemaError

from oracles import loop_gap_dense
from test_acceptance import Budget


@st.composite
def graded_groups(draw, min_degree=0, max_degree=6):
    parts = {}
    for k in range(min_degree, draw(st.integers(min_degree, max_degree)) + 1):
        rank = draw(st.integers(0, 3))
        torsion = draw(st.lists(st.sampled_from([2, 3, 4, 5, 9]), max_size=2))
        if rank or torsion:
            parts[k] = (rank, tuple(torsion))
    return GradedGroup.from_dict(parts)


@st.composite
def loop_tables(draw):
    dims = draw(st.dictionaries(st.integers(0, 8), st.integers(0, 6),
                                max_size=5))
    horizon = draw(st.integers(max(dims, default=0), 10))
    return LoopHomologyTable(dims, {}, horizon)


class TestSHPlus:
    def test_ball(self):
        hstar = GradedGroup.from_dict({0: (1, ())})
        for n in (2, 3, 7):
            p = sh_plus_from_vanishing(hstar, n)
            assert p.support == (n + 1,)
            assert p.group.rank(n + 1) == 1

    def test_subcritical_handle_degree(self):
        # one index-k handle adds a generator to H^k, landing at n-k+1
        n, k = 4, 2
        hstar = GradedGroup.from_dict({0: (1, ()), k: (1, ())})
        p = sh_plus_from_vanishing(hstar, n)
        assert p.group.rank(n - k + 1) == 1

    def test_torsion_is_carried(self):
        hstar = GradedGroup.from_dict({0: (1, ()), 2: (0, (4,))})
        p = sh_plus_from_vanishing(hstar, 3)
        assert p.group.torsion(2) == (4,)

    def test_weinstein_support_enforced(self):
        hstar = GradedGroup.from_dict({0: (1, ()), 5: (1, ())})
        with pytest.raises(ValueError, match="outside"):
            sh_plus_from_vanishing(hstar, 3)
        p = sh_plus_from_vanishing(hstar, 3, weinstein=False)
        assert -1 in p.support

    def test_provenance_validation(self):
        with pytest.raises(ValueError, match="provenance"):
            SHPlusProfile(GradedGroup.zero(), "guess")

    @given(graded_groups())
    @settings(max_examples=60, deadline=None)
    def test_reindex_roundtrip_and_support_window(self, hstar):
        n = max(hstar.support, default=0) + 1
        p = sh_plus_from_vanishing(hstar, n)
        assert sh_plus_reindex_back(p, n) == hstar
        assert not flexible_support_test(p.support, n).fired

    def test_json_roundtrip(self):
        p = sh_plus_from_vanishing(GradedGroup.from_dict({0: (1, ()), 2: (2, (3,))}), 4)
        q = SHPlusProfile.from_json(p.to_json())
        assert q.group == p.group and q.provenance == "formula"
        with pytest.raises(SchemaError):
            SHPlusProfile.from_json({"schema": 1})


class TestTautBounds:
    def test_vanishing_side(self):
        hstar = {0: 1, 2: 3}
        out = taut_les_bounds({}, hstar, 4)
        # k = n - j and n - j + 1 for each cohomology degree j
        assert out[4] == (0, 1)   # B = H^0 at k = 4... H^{0} + H^{1} = 1
        assert out[5] == (0, 1)
        assert out[2] == (0, 3)
        assert out[3] == (0, 3)

    def test_lower_bound_example(self):
        # dim SH_n = c with only H^0 = 1 nonzero: partner >= c - 1
        for c in (1, 5, 12):
            out = taut_les_bounds({4: c}, {0: 1}, 4)
            assert out[4] == (c - 1, c + 1)

    def test_all_zero(self):
        assert taut_les_bounds({2: 0}, {}, 3) == {2: (0, 0)}

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            taut_les_bounds({1: -2}, {}, 3)
        with pytest.raises(ValueError, match="negative"):
            taut_les_bounds({}, {0: -1}, 3)


class TestDistinguishers:
    def test_rank_difference_fires(self):
        a = GradedGroup.from_dict({0: (1, ()), 3: (2, ())})
        b = GradedGroup.from_dict({0: (1, ()), 3: (5, ())})
        v = distinguish_flexible_fillings(a, b, 3)
        assert v.fired and v.outcome == "non-contactomorphic"
        assert v.witness["degree"] == 3

    def test_torsion_difference_fires(self):
        a = GradedGroup.from_dict({0: (1, ()), 3: (0, (2,))})
        b = GradedGroup.from_dict({0: (1, ()), 3: (0, (3,))})
        assert distinguish_flexible_fillings(a, b, 3).fired

    def test_equal_is_indistinguishable(self):
        a = GradedGroup.from_dict({0: (1, ()), 2: (4, (2, 2))})
        v = distinguish_flexible_fillings(a, a, 4)
        assert not v.fired and v.outcome == INDISTINGUISHABLE

    def test_low_dimension_rejected(self):
        a = GradedGroup.zero()
        with pytest.raises(ValueError, match="n >= 3"):
            distinguish_flexible_fillings(a, a, 2)

    @given(graded_groups(), graded_groups())
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, a, b):
        va = distinguish_flexible_fillings(a, b, 4)
        vb = distinguish_flexible_fillings(b, a, 4)
        assert va.fired == vb.fired
        if va.fired:
            assert va.witness["degree"] == vb.witness["degree"]

    def test_verdict_truthiness(self):
        assert Verdict("x", True)
        assert not Verdict("y", False)


class TestCem:
    def test_examples(self):
        assert cem_flexible_obstruction(2, 0) is True
        assert cem_flexible_obstruction(1, 0) is False
        assert cem_flexible_obstruction(5, 3) is True
        assert cem_flexible_obstruction(4, 3) is False

    def test_validation(self):
        with pytest.raises(ValueError):
            cem_flexible_obstruction(0, 1)
        with pytest.raises(ValueError):
            cem_flexible_obstruction(2, -1)


class TestSupportTest:
    def test_high_support_fires(self):
        v = flexible_support_test({5, 7, 9}, 3)
        assert v.fired and v.witness["degree"] == 5

    def test_nonpositive_support_fires(self):
        v = flexible_support_test({0}, 4)
        assert v.fired and v.outcome == "no flexible filling"

    def test_window_is_inconclusive(self):
        assert not flexible_support_test(set(range(1, 5)), 3).fired

    def test_empty_support(self):
        assert not flexible_support_test(set(), 3).fired


class TestLoopTables:
    @pytest.mark.parametrize("change", [
        {"dims": {"0": 1, "2": 1.5}}, {"base": {"0": True}},
        {"dims": {"0.5": 1}}, {"horizon": 4.5}])
    def test_from_json_rejects_non_integers(self, change):
        doc = dict({"schema": 1, "dims": {"0": 1}, "base": {"0": 1},
                    "horizon": 4}, **change)
        with pytest.raises(SchemaError, match="must be an integer"):
            LoopHomologyTable.from_json(doc)

    def test_constant_loops_enforced(self):
        with pytest.raises(ValueError, match="constant loops"):
            LoopHomologyTable({0: 1}, {0: 1, 2: 1}, horizon=4)

    def test_constant_loops_check_is_independent_of_the_horizon(self):
        # the check used to walk every degree up to the horizon
        t = LoopHomologyTable({0: 1}, {0: 1}, horizon=10 ** 18)
        assert t.horizon == 10 ** 18
        with pytest.raises(ValueError, match="violated at degree 2: dim 0 < base 1"):
            LoopHomologyTable({0: 1}, {0: 1, 2: 1, 5: 1}, horizon=10 ** 18)

    def test_horizon_enforced(self):
        with pytest.raises(ValueError, match="horizon"):
            LoopHomologyTable({5: 1}, {}, horizon=3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            LoopHomologyTable({2: -1}, {}, horizon=3)

    def test_json_roundtrip(self):
        t = LoopHomologyTable({0: 1, 2: 10}, {0: 1, 2: 1}, horizon=5)
        assert LoopHomologyTable.from_json(t.to_json()) == t

    @pytest.mark.parametrize("key", ["dims", "base"])
    @pytest.mark.parametrize("value", [[1], "1", None])
    def test_json_tables_must_be_objects(self, key, value):
        doc = LoopHomologyTable({0: 1}, {0: 1}, horizon=2).to_json()
        doc[key] = value
        with pytest.raises(SchemaError, match=f"'{key}' must be an object"):
            LoopHomologyTable.from_json(doc)

    def test_distinguisher_fires(self):
        lm = LoopHomologyTable({0: 1, 2: 10}, {0: 1}, horizon=4)
        ln = LoopHomologyTable({0: 1}, {0: 1}, horizon=4)
        v = boundedinfinite_distinguisher(lm, ln, {}, 3)
        assert v.fired and v.witness == {"degree": 2, "gap": 10, "bound": 0}

    def test_bound_must_be_exceeded(self):
        lm = LoopHomologyTable({0: 1, 2: 4}, {0: 1}, horizon=4)
        ln = LoopHomologyTable({0: 1}, {0: 1}, horizon=4)
        hy = {1: 1, 2: 1}  # bound at k = 2: 2*hy[1] + 2*hy[2] = 4
        assert not boundedinfinite_distinguisher(lm, ln, hy, 3).fired
        lm2 = LoopHomologyTable({0: 1, 2: 5}, {0: 1}, horizon=4)
        assert boundedinfinite_distinguisher(lm2, ln, hy, 3).fired

    def test_growing_family_eventually_separates(self):
        ln = LoopHomologyTable({0: 1}, {0: 1}, horizon=3)
        hy = {0: 1, 1: 2, 2: 2, 3: 1}
        fired_at = None
        for i in range(1, 30):
            lm = LoopHomologyTable({0: 1, 2: i}, {0: 1}, horizon=3)
            if boundedinfinite_distinguisher(lm, ln, hy, 3).fired:
                fired_at = i
                break
        assert fired_at is not None

    @given(st.dictionaries(st.integers(0, 5), st.integers(0, 8), max_size=5),
           st.dictionaries(st.integers(0, 6), st.integers(0, 4), max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_never_fires_on_equal_tables(self, dims, hy):
        t = LoopHomologyTable(dims, {}, horizon=6)
        assert not boundedinfinite_distinguisher(t, t, hy, 3).fired

    @given(loop_tables(), loop_tables(),
           st.dictionaries(st.integers(-2, 10), st.integers(0, 3), max_size=6),
           st.integers(0, 8))
    @settings(max_examples=200, deadline=None)
    def test_walk_matches_the_range_walk(self, lm, ln, hy, n):
        v = boundedinfinite_distinguisher(lm, ln, hy, n)
        witness = loop_gap_dense(lm, ln, hy, n)
        if witness is None:
            assert not v.fired
            assert v.witness == {"horizon": min(lm.horizon, ln.horizon)}
        else:
            assert v.fired and v.witness == witness

    def test_far_horizon_walks_only_the_tables(self):
        # every degree up to the horizon used to be walked, some seconds
        lm = LoopHomologyTable({0: 1, 5: 3}, {0: 1}, horizon=10 ** 7)
        ln = LoopHomologyTable({0: 1}, {0: 1}, horizon=10 ** 7)
        with Budget("loop distinguisher at horizon 10^7", 1.0):
            assert not boundedinfinite_distinguisher(ln, ln, {}, 3).fired
            v = boundedinfinite_distinguisher(lm, ln, {}, 3)
        assert v.witness == {"degree": 5, "gap": 3, "bound": 0}

    def test_negative_boundary_dims_rejected(self):
        # a negative bound would fire off both tables, where the gap is 0
        t = LoopHomologyTable({0: 1}, {0: 1}, horizon=4)
        with pytest.raises(ValueError, match=r"hstar_dims\[2\] = -1 is negative"):
            boundedinfinite_distinguisher(t, t, {2: -1}, 3)


class TestWrapped:
    def test_ball_filling(self):
        for n in (2, 3, 6):
            p = wh_plus_from_vanishing(GradedGroup.from_dict({0: (1, ())}), n)
            assert p.support == (n - 1,)

    @pytest.mark.parametrize("degree", [-1, 4, 7])
    def test_lagrangian_support_enforced(self, degree):
        # a degree-7 class with n = 3 used to land at WH_{-5}
        hstar = GradedGroup.from_dict({0: (1, ()), degree: (1, ())})
        with pytest.raises(ValueError, match=r"outside degrees \[0, 3\]"):
            wh_plus_from_vanishing(hstar, 3)

    def test_differing_fillings_have_distinct_profiles(self):
        a = wh_plus_from_vanishing(GradedGroup.from_dict({0: (1, ())}), 3)
        b = wh_plus_from_vanishing(GradedGroup.from_dict({0: (1, ()), 1: (1, ())}), 3)
        assert a.group != b.group

    def test_loop_grading(self):
        # based loops with homology in degrees 0 and 2 land at n-2 and n
        p = wrapped_loop_grading(GradedGroup.from_dict({0: (1, ()), 2: (1, ())}), 5)
        assert p.support == (3, 5)

    def test_nearby_iso(self):
        sphere = GradedGroup.from_dict({0: (1, ()), 4: (1, ())})
        v = nearby_conclusion(sphere, sphere, True)
        assert v.fired and "isomorphism" in v.outcome

    def test_nearby_needs_degree(self):
        sphere = GradedGroup.from_dict({0: (1, ()), 4: (1, ())})
        assert not nearby_conclusion(sphere, sphere, False).fired

    def test_nearby_mismatch_is_inconclusive(self):
        a = GradedGroup.from_dict({0: (1, ())})
        b = GradedGroup.from_dict({0: (1, ()), 1: (0, (2,))})
        v = nearby_conclusion(a, b, True)
        assert not v.fired and v.witness["degree"] == 1

    def test_nearby_accepts_dim_tables(self):
        assert nearby_conclusion({0: 1, 4: 1}, {0: 1, 4: 1}, True).fired


class TestAdcObstruction:
    def test_low_degree_support_fires(self):
        # surface-like shape: n = 2 with H^2 != 0 puts SH+ at k = 1 = 3 - n
        hstar = GradedGroup.from_dict({0: (1, ()), 2: (1, ())})
        p = sh_plus_from_vanishing(hstar, 2)
        assert 1 in p.support
        v = sh_support_adc_obstruction(p.support, 2)
        assert v.fired and v.outcome == "not ADC"
        assert v.witness["degree"] == 1

    def test_window_clean(self):
        assert not sh_support_adc_obstruction({1, 2, 3, 4}, 3).fired

    def test_zero_degree_at_n3(self):
        assert sh_support_adc_obstruction({0}, 3).fired
