"""Presentations, boundary homology, omega membership, connect sums."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from weinkit import graded, handles
from weinkit.graded import ChainComplex, GradedGroup, homology
from weinkit.handles import (
    BoundaryHomologyReport,
    HandlePresentation,
    boundary_connect_sum,
    boundary_homology,
    c1_propagation_check,
    cohomology,
    handlebody_boundary_homology,
    intersection_form_rank,
    omega_membership,
)
from weinkit.serialize import SchemaError


def ball(n):
    return HandlePresentation(n, [(0, "h0")])


def t_star_sphere(n):
    form = [[0]] if n % 2 else [[2]]
    return HandlePresentation(n, [(0, "h0"), (n, "hn")], intersection_form=form)


class TestPresentationValidation:
    def test_counts_become_chain_dims(self):
        p = HandlePresentation(3, [0, 2, 2, 3])
        assert p.handle_counts() == {0: 1, 2: 2, 3: 1}
        assert p.total_dim == 6

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            HandlePresentation(2, [0, 3])

    def test_two_zero_handles_need_flag(self):
        with pytest.raises(ValueError, match="0-handle"):
            HandlePresentation(2, [0, 0])
        p = HandlePresentation(2, [0, 0], allow_many_zero_handles=True)
        assert p.chain.dim(0) == 2

    def test_single_zero_handle_forces_zero_d1(self):
        with pytest.raises(ValueError, match="1-handle"):
            HandlePresentation(2, [0, 1], {1: [[1]]})
        p = HandlePresentation(2, [0, 1], {1: [[0]]})
        assert p.chain.boundary(1) is None

    def test_form_entries_must_be_integers(self):
        # 0.5 used to be truncated to 0, reading the form as zero
        with pytest.raises(ValueError,
                           match=r"intersection form: .*0\.5.*not an integer"):
            HandlePresentation(3, [0, 3, 3],
                               intersection_form=[[0.5, 0], [0, 0]])

    def test_form_shape_checked(self):
        with pytest.raises(ValueError, match="intersection form"):
            HandlePresentation(2, [0, 2], intersection_form=[[1, 0], [0, 1]])

    def test_homology_of_cotangent_sphere(self):
        p = t_star_sphere(3)
        h, hstar = cohomology(p)
        assert h.rank(0) == 1 and h.rank(3) == 1 and h.rank(1) == 0
        assert hstar.rank(3) == 1 and hstar.torsion(3) == ()

    def test_no_homology_above_n(self):
        p = HandlePresentation(2, [0, 1, 2, 2], {2: [[2, 0]]})
        h = p.homology()
        assert all(k <= p.n for k in h.support)


class TestBoundaryEngine:
    def test_ball_boundary_is_sphere(self):
        for n in (1, 2, 3, 5):
            r = boundary_homology(ball(n)) if n >= 2 else None
            if n == 1:
                continue
            d = 2 * n
            assert r.boundary_dim == d - 1
            assert r.fully_determined
            assert r.graded_q() == {k: (1 if k in (0, d - 1) else 0)
                                    for k in range(d)}
            assert r.integral_homology[0] == (1, ())
            assert r.integral_homology[d - 1] == (1, ())
            assert all(v == (0, ()) for k, v in r.integral_homology.items()
                       if 0 < k < d - 1)
            assert r.euler == 0

    def test_cotangent_sphere_odd(self):
        r = boundary_homology(t_star_sphere(3))
        assert r.graded_q() == {0: 1, 1: 0, 2: 1, 3: 1, 4: 0, 5: 1}
        assert r.euler == 0

    def test_cotangent_sphere_even_unit_disk_bundle(self):
        r = boundary_homology(t_star_sphere(2))
        assert r.graded_q() == {0: 1, 1: 0, 2: 0, 3: 1}
        # framing leaves the integral middle groups open even with the form
        assert 1 not in r.integral_homology and 2 not in r.integral_homology

    def test_cotangent_sphere_without_form_is_undetermined(self):
        p = HandlePresentation(3, [0, 3])
        r = boundary_homology(p)
        assert r.undetermined == (2, 3)
        assert r.dim(2) is None and r.dim(0) == 1
        with pytest.raises(ValueError, match="undetermined"):
            r.graded_q()
        assert r.notes

    def test_pairing_rank_validation(self):
        chain = ChainComplex({0: 1, 3: 1}, {})
        with pytest.raises(ValueError, match="exceeds"):
            handlebody_boundary_homology(chain, 6, {3: 2})
        r = handlebody_boundary_homology(chain, 6, {3: 1})
        assert r.graded_q() == {0: 1, 1: 0, 2: 0, 3: 0, 4: 0, 5: 1}

    def test_no_room_for_boundary(self):
        chain = ChainComplex({0: 1, 2: 1}, {})
        with pytest.raises(ValueError, match="no boundary"):
            handlebody_boundary_homology(chain, 2)

    def test_wedge_thickening_family(self):
        # thickened wedge of i copies of (S^2 v S^3) in dimension n+1 = 7
        for i in range(5):
            chain = ChainComplex({0: 1, 2: i, 3: i}, {})
            r = handlebody_boundary_homology(chain, 7)
            assert r.fully_determined
            assert r.euler == 2
            assert r.graded_q() == {0: 1, 1: 0, 2: i, 3: 2 * i, 4: i, 5: 0, 6: 1}

    def test_duality_of_q_dims(self):
        chain = ChainComplex({0: 1, 1: 2, 3: 4}, {})
        r = handlebody_boundary_homology(chain, 8)
        g = r.graded_q()
        for k, val in g.items():
            assert g[7 - k] == val

    def test_semi_characteristic_of_boundary(self):
        # boundary of the n = 6 thickening of a single S^2 v S^3
        chain = ChainComplex({0: 1, 2: 1, 3: 1}, {})
        r = handlebody_boundary_homology(chain, 7)
        with pytest.raises(ValueError, match="odd"):
            r.semi_characteristic()
        r2 = handlebody_boundary_homology(ChainComplex({0: 1, 2: 3}, {}), 6)
        assert r2.semi_characteristic() == (1 + 3) % 2

    def test_torsion_in_forced_range(self):
        # RP^2-like 2-skeleton thickened to dimension 7: H_1(W) = Z/2
        chain = ChainComplex({0: 1, 1: 1, 2: 1}, {2: [[2]]})
        r = handlebody_boundary_homology(chain, 7)
        assert r.fully_determined
        h = homology(chain)
        assert h.torsion(1) == (2,)
        # H^2(Y) = H^2(W) = Z/2 by the vanishing rule, so H_4(Y) carries it
        assert r.integral_homology[4] == (0, (2,))
        # H^5(Y) = H_1(W) = Z/2 (cohomology of W vanishes there), so H_1(Y) too
        assert r.integral_homology[1] == (0, (2,))
        assert r.integral_homology[0] == (1, ())
        assert r.integral_homology[6] == (1, ())


def intersection_form_rank_by_boundary(p):
    """rank = dim H^n(W;Q) + dim H^{n-1}(W;Q) - dim H^n(Y;Q), read off the
    whole boundary report and a second homology of the chain complex.  A
    regression oracle: it calls weinkit's own boundary_homology."""
    if p.n < 2:
        raise ValueError(f"intersection form rank needs n >= 2, got n = {p.n}")
    hn_y = boundary_homology(p).dim(p.n)
    if hn_y is None:
        raise ValueError(
            "dim H^n(Y;Q) undetermined without middle framing data; "
            "set intersection_form on the presentation")
    hstar = p.cohomology()
    return hstar.rank(p.n) + hstar.rank(p.n - 1) - hn_y


class TestIntersectionFormRank:
    def test_cotangent_spheres(self):
        assert intersection_form_rank(t_star_sphere(3)) == 0
        assert intersection_form_rank(t_star_sphere(5)) == 0
        assert intersection_form_rank(t_star_sphere(2)) == 1

    def test_ball_and_one_handle(self):
        assert intersection_form_rank(ball(2)) == 0
        p = HandlePresentation(2, [0, 1], {1: [[0]]})
        assert intersection_form_rank(p) == 0

    def test_needs_middle_data(self):
        p = HandlePresentation(2, [0, 2])
        with pytest.raises(ValueError, match="undetermined"):
            intersection_form_rank(p)

    @staticmethod
    def random_presentation(rng):
        """n in [2, 5]; free handles of index 1 to n - 2, a random d_n
        from the n-handles to the (n-1)-handles, and no form or a random
        one of random rank."""
        n = rng.randint(2, 5)
        below, middle = rng.randint(0, 3), rng.randint(0, 3)
        free = ([rng.randint(1, n - 2) for _ in range(rng.randint(0, 2))]
                if n > 2 else [])
        indices = [0, *free] + [n - 1] * below + [n] * middle
        boundaries = {}
        if below and middle:
            boundaries[n] = [[rng.randint(-2, 2) for _ in range(middle)]
                             for _ in range(below)]
        form = None
        if rng.random() < 0.75:
            # a product of middle x r and r x middle factors has rank <= r
            r = rng.randint(0, middle)
            a = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(middle)]
            b = [[rng.randint(-2, 2) for _ in range(middle)] for _ in range(r)]
            form = [[sum(a[i][t] * b[t][j] for t in range(r))
                     for j in range(middle)] for i in range(middle)]
        return HandlePresentation(n, indices, boundaries, form)

    def test_matches_the_boundary_identity(self):
        # rank = b_n + b_{n-1} - dim H^n(Y;Q) over the whole boundary report,
        # the route the function took before: same rank or same message
        def outcome(rank_of, p):
            try:
                return rank_of(p)
            except ValueError as exc:
                return str(exc)
        rng = random.Random(20251019)
        seen = set()
        for case in range(1200):
            p = self.random_presentation(rng)
            want = outcome(intersection_form_rank_by_boundary, p)
            assert outcome(intersection_form_rank, p) == want, (case, p)
            seen.add(want.split()[0] if isinstance(want, str) else want > 0)
        assert seen == {"pairing", "dim", False, True}, seen

    def test_computes_homology_once(self, monkeypatch):
        calls = []

        def counted(chain):
            calls.append(chain)
            return homology(chain)
        for module in (graded, handles):
            monkeypatch.setattr(module, "homology", counted)
        assert intersection_form_rank(t_star_sphere(2)) == 1
        assert len(calls) == 1


class TestOmegaMembership:
    FLAGS = dict(closed=True, simply_connected=True, stably_parallelizable=True)

    def test_even_sphere(self):
        v = omega_membership({0: 1, 6: 1}, 6, **self.FLAGS)
        assert v.member and "chi = 2" in v.reason

    def test_even_torus_like_fails(self):
        v = omega_membership({0: 1, 1: 2, 2: 1}, 2, **self.FLAGS)
        assert not v.member

    def test_odd_sphere(self):
        assert omega_membership({0: 1, 3: 1}, 3, **self.FLAGS).member

    def test_odd_s2xs1_fails(self):
        v = omega_membership({0: 1, 1: 1, 2: 1, 3: 1}, 3, **self.FLAGS)
        assert not v.member and "semi-characteristic" in v.reason

    def test_missing_flags(self):
        v = omega_membership({0: 1, 6: 1}, 6, closed=True, simply_connected=True)
        assert not v.member and "stably_parallelizable" in v.reason

    def test_bad_n(self):
        with pytest.raises(ValueError):
            omega_membership({0: 1}, 0, **self.FLAGS)

    def test_accepts_graded_group(self):
        g = GradedGroup.free({0: 1, 4: 1})
        assert omega_membership(g, 4, **self.FLAGS).member


class TestConnectSum:
    def test_ball_is_identity(self):
        p = t_star_sphere(3)
        q = boundary_connect_sum(ball(3), p)
        assert q.handle_counts() == p.handle_counts()
        assert q.homology() == p.homology()

    def test_two_cotangent_s2(self):
        p = boundary_connect_sum(t_star_sphere(2), t_star_sphere(2))
        assert p.handle_counts() == {0: 1, 2: 2}
        assert p.intersection_form == [[2, 0], [0, 2]]
        r = boundary_homology(p)
        assert r.graded_q() == {0: 1, 1: 0, 2: 0, 3: 1}
        assert intersection_form_rank(p) == 2

    def test_boundaries_block_sum(self):
        a = HandlePresentation(2, [0, 1, 2], {2: [[3]]})
        b = HandlePresentation(2, [0, 1, 2], {2: [[5]]})
        c = boundary_connect_sum(a, b)
        assert c.chain.boundary(2) == [[3, 0], [0, 5]]
        h = c.homology()
        assert h.torsion(1) == (15,) or h.torsion(1) == (1, 15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="half-dimensions"):
            boundary_connect_sum(ball(2), ball(3))

    def test_requires_single_zero_handle(self):
        p = HandlePresentation(2, [0, 0], allow_many_zero_handles=True)
        with pytest.raises(ValueError, match="one 0-handle"):
            boundary_connect_sum(p, ball(2))

    def test_form_lost_when_one_side_unknown(self):
        a = t_star_sphere(2)
        b = HandlePresentation(2, [0, 2])  # no form
        assert boundary_connect_sum(a, b).intersection_form is None
        c = HandlePresentation(2, [0, 1], {1: [[0]]})  # no 2-handles at all
        assert boundary_connect_sum(a, c).intersection_form == [[2]]


class TestC1Propagation:
    def test_no_two_handles(self):
        rep = c1_propagation_check(t_star_sphere(3))
        assert rep.all_apply

    def test_two_handle_flagged(self):
        p = HandlePresentation(3, [0, 2, 3], {3: [[0]]})
        rep = c1_propagation_check(p)
        assert not rep.all_apply
        flagged = [e for e in rep.entries if not e.applies]
        assert len(flagged) == 1 and flagged[0].index == 2
        assert "framing" in flagged[0].note

    def test_low_dimension_hypothesis(self):
        rep = c1_propagation_check(ball(2))
        assert not rep.all_apply
        assert "n >= 3" in rep.entries[0].note

    def test_report_document_with_a_two_handle(self):
        p = HandlePresentation(3, [0, 2, 3], {3: [[0]]})
        free = "no relative degree-2 cohomology"
        assert c1_propagation_check(p).to_json() == {
            "schema": 1, "n": 3, "all_apply": False, "entries": [
                {"index": 0, "label": "h0.0", "applies": True, "note": free},
                {"index": 2, "label": "h2.1", "applies": False,
                 "note": "index-2 handle: framing contributes to relative "
                         "degree-2 cohomology"},
                {"index": 3, "label": "h3.2", "applies": True, "note": free}]}

    def test_report_document_below_n3(self):
        p = HandlePresentation(2, [0, (1, "a")])
        assert c1_propagation_check(p).to_json() == {
            "schema": 1, "n": 2, "all_apply": False, "entries": [
                {"index": 0, "label": "h0.0", "applies": False,
                 "note": "hypothesis n >= 3 fails"},
                {"index": 1, "label": "a", "applies": False,
                 "note": "hypothesis n >= 3 fails"}]}


class TestJson:
    def test_roundtrip(self):
        p = boundary_connect_sum(t_star_sphere(2), t_star_sphere(2))
        doc = p.to_json()
        q = HandlePresentation.from_json(doc)
        assert q.handle_counts() == p.handle_counts()
        assert q.intersection_form == p.intersection_form
        assert q.chain.boundaries == p.chain.boundaries

    def test_report_json(self):
        doc = boundary_homology(t_star_sphere(2)).to_json()
        assert doc["euler"] == 0
        assert doc["q_dims"]["0"] == 1

    def test_unlabeled_handles_get_the_constructor_labels(self):
        # JSON used to label them h<position>: h0, h1 here
        doc = {"schema": 1, "n": 2, "handles": [{"index": 0}, {"index": 2}]}
        p = HandlePresentation.from_json(doc)
        assert p.handles == HandlePresentation(2, [0, 2]).handles
        assert p.handles == ((0, "h0.0"), (2, "h2.1"))

    def test_schema_errors(self):
        with pytest.raises(SchemaError):
            HandlePresentation.from_json({"n": 2})
        with pytest.raises(SchemaError):
            HandlePresentation.from_json(
                {"schema": 1, "n": 2, "handles": [{"index": 5}]})

    @pytest.mark.parametrize("change", [
        {"n": 2.5}, {"handles": [{"index": 0}, {"index": 1.0}]},
        {"boundary_matrices": {"2.0": [["0"]]}},
        {"boundary_matrices": {"2": [["0.5"]]}}])
    def test_from_json_rejects_non_integers(self, change):
        doc = dict({"schema": 1, "n": 2,
                    "handles": [{"index": 0}, {"index": 1}, {"index": 2}]},
                   **change)
        with pytest.raises(SchemaError, match="must be an integer"):
            HandlePresentation.from_json(doc)

    @pytest.mark.parametrize("change, message", [
        ({"boundary_matrices": [1]}, "'boundary_matrices' must be an object"),
        ({"allow_many_zero_handles": "false"},
         "allow_many_zero_handles must be true or false"),
        ({"handles": "0"}, "handles must be a list"),
        ({"handles": {"0": {"index": 0}}}, "handles must be a list"),
        ({"handles": [{"index": 0, "label": None}]},
         "handle label must be a string, got None"),
        ({"handles": [[0]]}, "handle entry must be an object")])
    def test_from_json_rejects_wrong_types(self, change, message):
        # a list of boundary matrices used to end in an AttributeError
        doc = dict({"schema": 1, "n": 2, "handles": [{"index": 0}]}, **change)
        with pytest.raises(SchemaError, match=message):
            HandlePresentation.from_json(doc)


@st.composite
def free_presentations(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    counts = {0: 1}
    for k in range(2, n + 1):
        c = draw(st.integers(min_value=0, max_value=3))
        if c:
            counts[k] = c
    return n, counts


class TestBoundaryProperties:
    @given(free_presentations())
    @settings(max_examples=60, deadline=None)
    def test_duality_euler_and_determinacy(self, data):
        n, counts = data
        chain = ChainComplex(counts, {})
        d = 2 * n
        pairing = {n: 0} if counts.get(n, 0) else None
        r = handlebody_boundary_homology(chain, d, pairing)
        assert r.fully_determined
        g = r.graded_q()
        for k, val in g.items():
            assert g[d - 1 - k] == val
        assert r.euler == 0
        assert sum((-1) ** k * v for k, v in g.items()) == 0

    @given(free_presentations())
    @settings(max_examples=40, deadline=None)
    def test_forced_integral_matches_q_dims(self, data):
        n, counts = data
        chain = ChainComplex(counts, {})
        r = handlebody_boundary_homology(chain, 2 * n, {n: 0})
        for k, (rank, _) in r.integral_homology.items():
            assert r.dim(k) == rank
