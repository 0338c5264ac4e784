"""Acceptance gate: the ten headline checks, each timed against its budget.

Every test prints one PASS line with its measured time (visible with -s;
under plain -v the test outcome itself is the pass/fail line).  Randomized
criteria use fixed seeds, so the gate is deterministic.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from oracles import brute_force_words, homology_ranks_by_row_reduction, mat_mul

from weinkit.chords import (
    ChordRecord,
    ChordSpectrum,
    MorseData,
    chord_degree,
    choose_Q,
    min_positive_N,
    self_intersection_index,
    stabilize,
)
from weinkit.floer import (
    cem_flexible_obstruction,
    distinguish_flexible_fillings,
    flexible_support_test,
)
from weinkit.graded import ChainComplex, GradedGroup, cancel_summand, homology
from weinkit.models import (
    middle_rank_family,
    wedge_spheres_boundary,
    wedge_thickening,
)
from weinkit.scaling import (
    bound_ratio,
    build_g,
    conformal_bound,
    verify_h_family,
)
from weinkit.snf import bareiss_determinant, is_unimodular, smith_normal_form
from weinkit.surgery import (
    ADCCertificate,
    OrbitRecord,
    OrbitSpectrum,
    Stage,
    adc_check,
    enumerate_words,
    flexible_surgery_certificate,
    orbits_after_surgery,
)


class Budget:
    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.label}: {elapsed:.2f}s exceeds the "
                f"{self.seconds:g}s budget")
            print(f"{self.label}: PASS ({elapsed:.2f}s / {self.seconds:g}s)")
        return False


def test_criterion_01_chord_grading_table():
    with Budget("criterion 1 (chord grading)", 1.0):
        assert chord_degree(2, 0, 0) == 1
        for j in range(11):
            assert chord_degree(2, 0, j) == 1 + j


def test_criterion_02_stabilization_positivity():
    rng = random.Random(0)
    with Budget("criterion 2 (stabilization positivity)", 1.0):
        q_data = choose_Q(3)
        for _ in range(1000):
            count = rng.randint(1, 20)
            records = tuple(
                ChordRecord(f"c{i}", rng.randint(-10, 10),
                            Fraction(rng.randint(1, 200), 10))
                for i in range(count))
            s = ChordSpectrum(3, records, Fraction(21))
            n_shift = min_positive_N(s)
            assert n_shift == max(1 - min(c.degree for c in records), 0)
            out = stabilize(s, n_shift, q_data, Fraction(1, 2))
            old_ids = {c.id for c in records}
            for c in out.chords:
                if c.id in old_ids:
                    assert c.degree >= n_shift + 1
                else:
                    assert c.degree >= 1


def test_criterion_03_word_enumeration_oracle():
    rng = random.Random(1)
    pool = [Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2),
            Fraction(2), Fraction(5, 2), Fraction(3), Fraction(4)]
    with Budget("criterion 3 (word enumeration)", 5.0):
        for _ in range(200):
            n = rng.choice([3, 4, 5])
            size = rng.randint(1, 4)
            letters = "abcd"[:size]
            drawn = [ChordRecord(letter, rng.randint(-3, 5), rng.choice(pool))
                     for letter in letters]
            amin = min(c.action for c in drawn)
            # keep the brute-force oracle's sequence length tractable
            bound = min(Fraction(20), amin * Fraction(rng.randint(3, 11), 2))
            # the spectrum only carries chords inside the action window
            records = tuple(c for c in drawn if c.action < bound)
            s = ChordSpectrum(n, records, bound)
            words = enumerate_words(s, bound)
            got = sorted(w.letters for w in words)
            want = brute_force_words(
                {c.id: c.action for c in records}, bound)
            assert got == want
            degree_of = {c.id: c.degree for c in records}
            action_of = {c.id: c.action for c in records}
            for w in words:
                assert w.degree == sum(degree_of[l] for l in w.letters)
                assert w.action == sum(action_of[l] for l in w.letters)
            # the same words, seen as orbits: degree shifts by n - 3
            orbs = orbits_after_surgery(OrbitSpectrum(n, (), bound), s, bound)
            assert len(orbs.orbits) == len(words)
            for rec, w in zip(orbs.orbits, words):
                assert rec.degree == sum(degree_of[l] for l in w.letters) + n - 3
                assert rec.origin == "word:" + w.label()


def test_criterion_04_flexible_pipeline_randomized():
    rng = random.Random(2)
    with Budget("criterion 4 (critical-surgery pipeline)", 10.0):
        for _ in range(500):
            n = rng.choice([3, 4, 5])
            m = rng.randint(1, 3)
            stages = []
            for k in range(1, m + 1):
                bound = k * 4 ** k + Fraction(rng.randint(1, 8), 2)
                orbits = tuple(
                    OrbitRecord(rng.randint(1, 6),
                                bound * Fraction(rng.randint(1, 9), 10))
                    for _ in range(rng.randint(0, 3)))
                stages.append(Stage(Fraction(1, 2 ** (k - 1)), bound,
                                    OrbitSpectrum(n, orbits, bound)))
            cert = ADCCertificate(tuple(stages))
            chords = None
            if rng.random() < 0.7:
                wmax = m * 4 ** m
                records = tuple(
                    ChordRecord(f"c{i}", rng.randint(1, 6),
                                Fraction(rng.randint(int(0.8 * wmax),
                                                     2 * wmax - 1), 2))
                    for i in range(rng.randint(1, 5)))
                chords = ChordSpectrum(n, records, Fraction(wmax + 1))
            out = flexible_surgery_certificate(cert, chords, n)
            assert adc_check(out).fired
            assert [st.bound for st in out.stages] == list(range(1, m + 1))


def test_criterion_05_belt_degree_positivity():
    with Budget("criterion 5 (belt iterate positivity)", 1.0):
        for n in range(2, 21):
            for k in range(1, n):
                for j in range(1, 51):
                    assert 2 * n - k - 4 + 2 * j > 0
        # the library's records carry exactly these degrees
        from weinkit.surgery import subcritical_surgery
        for n in range(2, 7):
            for k in range(1, n):
                s = OrbitSpectrum(n, (), Fraction(100))
                out = subcritical_surgery(s, n, k, 5, Fraction(1),
                                          hypotheses_asserted=True)
                assert [r.degree for r in out.orbits] \
                    == [2 * n - k - 4 + 2 * j for j in range(1, 6)]


def test_criterion_06_wedge_families():
    with Budget("criterion 6 (wedge families)", 1.0):
        for i in range(1, 11):
            chain, rep = wedge_thickening(i)
            assert chain.dims.get(2, 0) == i
            assert chain.euler_characteristic() == 1
            assert rep.euler == 2
            _, rep2 = wedge_spheres_boundary(i)
            assert rep2.dim(3) == i
            assert rep2.semi_characteristic() == (1 + i) % 2


def test_criterion_07_distinguishers():
    with Budget("criterion 7 (distinguishers)", 1.0):
        groups = [middle_rank_family(3, i).cohomology() for i in range(1, 11)]
        for i, a in enumerate(groups):
            for j, b in enumerate(groups):
                verdict = distinguish_flexible_fillings(a, b, 3)
                assert verdict.fired == (i != j)
        for n in range(3, 9):
            assert flexible_support_test((n + 2,), n).fired
            assert flexible_support_test((1, n + 3), n).fired
            assert not flexible_support_test(tuple(range(1, n + 2)), n).fired
        for k in range(1, 13):
            for dim in range(0, 7):
                assert cem_flexible_obstruction(k, dim) == (k >= dim + 2)


def test_criterion_08_scaling_bounds():
    with Budget("criterion 8 (scaling bounds)", 5.0):
        profile = build_g()
        ratio = bound_ratio(profile, t_max=0.999, tolerance=1e-6)
        assert ratio.holds
        assert ratio.max_ratio <= 1.25 + 1e-6
        assert abs(profile.integral_residual()) < 1e-8
        conf = conformal_bound()
        assert abs(conf.value - 3.490343) <= 1e-6
        assert conf.value < 4
        family = verify_h_family(profile, t_max=0.999, fd_step=1e-3)
        assert family.ok
        fd_check = family.checks["mixed_partial_fd"]
        assert fd_check.ok and fd_check.tolerance == 1e-4
        # direct finite difference of dh/dz in t against g
        zs = np.linspace(-1.5, 1.5, 2001)
        g_abs = [profile.g(z) for z in zs]
        step = 1e-3
        for t in (0.1, 0.5, 0.9):
            fd = [(profile.slope(t + step, z) - profile.slope(t - step, z))
                  / (2 * step) for z in zs]
            assert max(abs(a - b) for a, b in zip(fd, g_abs)) <= 1e-4


def _random_invariant_chain(rng):
    factors = []
    current = rng.choice([2, 2, 3])
    for _ in range(rng.randint(0, 3)):
        factors.append(current)
        current *= rng.choice([1, 2, 3])
    return tuple(factors)


def test_criterion_09_snf_and_cancellation():
    rng = random.Random(3)
    with Budget("criterion 9 (exact linear algebra)", 10.0):
        for _ in range(1000):
            rows = rng.randint(1, 8)
            cols = rng.randint(1, 8)
            a = [[rng.randint(-20, 20) for _ in range(cols)]
                 for _ in range(rows)]
            res = smith_normal_form(a)
            assert is_unimodular(res.u) and is_unimodular(res.v)
            assert abs(bareiss_determinant(res.u)) == 1
            d = mat_mul(mat_mul(res.u, a), res.v)
            assert d == res.d
            diag = [d[i][i] for i in range(min(rows, cols))]
            for x, y in zip(diag, diag[1:]):
                if y != 0:
                    assert x != 0 and y % x == 0
            assert res.rank == sum(1 for x in diag if x != 0)
        for _ in range(300):
            a, b, c = (rng.randint(1, 5) for _ in range(3))
            d2 = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(b)]
            lower = ChainComplex({0: a, 1: b},
                                 {1: [[rng.randint(-9, 9) for _ in range(b)]
                                      for _ in range(a)]})
            upper = ChainComplex({1: b, 2: c}, {2: d2})
            chain = lower.direct_sum(upper)
            h = homology(chain)
            want = homology_ranks_by_row_reduction(chain.dims,
                                                   chain.boundaries)
            for k in chain.dims:
                assert h.rank(k) == want.get(k, 0)
        for _ in range(200):
            g = GradedGroup.from_dict({
                k: (rng.randint(0, 3), _random_invariant_chain(rng))
                for k in range(rng.randint(1, 4))})
            c = GradedGroup.from_dict({
                k: (rng.randint(0, 2), _random_invariant_chain(rng))
                for k in range(rng.randint(1, 3))})
            left, right, iso = cancel_summand(g.direct_sum(c),
                                              g.direct_sum(c), c)
            assert iso and left == g and right == g


def test_criterion_10_self_intersection_invariant():
    with Budget("criterion 10 (self-intersection index)", 1.0):
        for big_n in range(0, 11):
            assert self_intersection_index(3, big_n, choose_Q(3)).value == 0
            for n in range(4, 10):
                assert self_intersection_index(n, big_n,
                                               choose_Q(n)).value == 0
        signs = [(-1) ** (((n - 1) * (n - 2)) // 2) for n in range(2, 10)]
        assert signs == [1, -1, -1, 1, 1, -1, -1, 1]
        sphere = MorseData("S2", 2, 2, True, (0, 2))
        point = MorseData("pt", 0, 1, True, (0,))
        for n, sign in zip(range(2, 10), signs):
            idx = self_intersection_index(n, 3, sphere)
            if n % 2 == 0:
                assert idx.modulus == "Z" and idx.value == sign * 3 * 2
            else:
                assert idx.modulus == "Z/2" and idx.value == 0
            odd = self_intersection_index(n, 3, point)
            if n % 2 == 1:
                assert odd.modulus == "Z/2" and odd.value == 1
