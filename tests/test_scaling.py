"""Profile calibration, the exact certificate of its bounds, and the float
grid of tests/oracles.py that cross-checks it."""

import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weinkit.scaling import (
    bound_ratio,
    build_g,
    conformal_bound,
    verify_h_family,
)

import oracles
from cli_invoke import invoke
from oracles import GridProfile
from test_acceptance import Budget

# ln 4 = 2 ln 2 to 36 digits
LN_4 = Fraction("1.386294361119890618834464242916353136")


def exact_amplitude(rise_w, fall_start, fall_w):
    """Closed-form amplitude in exact rational arithmetic."""
    rise_w, fall_start, fall_w = map(Fraction, (rise_w, fall_start, fall_w))
    plateau = fall_start - Fraction(1, 2) - rise_w
    return (Fraction(1, 2) + rise_w / 2) / (rise_w / 2 + plateau + fall_w / 2)


def grid_twin(profile):
    """The oracle's float profile on the breakpoints of PROFILE."""
    return GridProfile(float(profile.height), float(profile.rise_width),
                       float(profile.fall_start), float(profile.fall_width),
                       profile.nodes)


DEFAULT_GRID = GridProfile(1.25, 0.03, 0.96, 0.03, 2001)


def assert_identities_agree(family, grid):
    """Each check of the exact report FAMILY within its tolerance of the
    oracle's grid value (1e-12 for slope_positive, a minimum)."""
    for name, check in family.checks.items():
        assert abs(float(check.value) - grid[name]) <= (
            check.tolerance or 1e-12), (name, check.value, grid[name])


def assert_samples_agree(zs, gs, big_gs, twin):
    """Sampled z, g and G against the oracle's grid of the same size."""
    want = twin.own_grid()
    for got, ref in ((zs, want), (gs, twin.g(want)),
                     (big_gs, twin.antiderivative(want))):
        assert np.max(np.abs(np.asarray(got, dtype=float) - ref)) <= 1e-12


def assert_agrees(profile, nodes, t_nodes=201):
    """The exact certificate of PROFILE against the oracle's float grid of
    NODES z values by T_NODES t values: the ratio maximum to 1e-12, every
    identity within its tolerance, and the samples to 1e-12."""
    twin = grid_twin(profile)
    got = float(bound_ratio(profile).max_ratio)
    assert abs(got - oracles.grid_ratio(twin, 0.999, nodes)[0]) <= 1e-12
    assert_identities_agree(verify_h_family(profile), oracles.grid_h_family(
        twin, nodes=nodes, t_nodes=t_nodes))
    assert_samples_agree(*zip(*profile.samples()), twin)


class TestProfileConstruction:
    def test_default_amplitude_matches_exact_formula(self):
        p = build_g()
        want = exact_amplitude(Fraction(3, 100), Fraction(24, 25),
                               Fraction(3, 100))
        assert p.amplitude == want == Fraction(103, 92)
        assert p.amplitude <= 1.25

    def test_exact_integral_vanishes_rationally(self):
        # smoothstep transitions integrate to half their box exactly, so
        # the signed area is a rational identity in the amplitude
        w_r = Fraction(3, 100)
        w_f = Fraction(3, 100)
        fall_start = Fraction(24, 25)
        amp = exact_amplitude(w_r, fall_start, w_f)
        plateau = fall_start - Fraction(1, 2) - w_r
        total = (-Fraction(1, 2)
                 + w_r * (amp - 1) / 2
                 + amp * plateau
                 + amp * w_f / 2)
        assert total == 0
        # and the profile's own term-by-term integral is that rational 0
        residual = build_g().integral_residual()
        assert residual == 0 and isinstance(residual, Fraction)

    def test_piecewise_values(self):
        p = build_g()
        v = p.amplitude
        got = [p.g(r) for r in (0.0, 0.3, 0.5, 0.515, 0.7, 0.975, 0.99,
                                1.0, 1.4)]
        assert got[0] == got[1] == got[2] == -1.0
        assert abs(got[3] - (-1.0 + (v + 1.0) / 2)) < 1e-12
        assert got[4] == float(v)
        assert abs(got[5] - v / 2) < 1e-12
        assert got[6] == got[7] == got[8] == 0.0
        # rational arguments give rational values
        half = Fraction(1, 2)
        assert p.g(half + Fraction(3, 200)) == -1 + (v + 1) / 2
        assert p.g(Fraction(39, 40)) == v / 2
        assert p.g(Fraction(7, 10)) == v

    def test_profile_is_even_in_argument(self):
        p = build_g()
        zs = np.linspace(0, 1.5, 301)
        assert [p.g(z) for z in zs] == [p.g(-z) for z in zs]

    def test_simpson_residual_tiny_on_own_grid(self):
        # the oracle's quadrature of its float g nears the exact 0
        assert build_g().integral_residual() == 0
        assert abs(DEFAULT_GRID.integral_residual()) < 1e-12

    @pytest.mark.parametrize("nodes, residual", [
        (1999, -1.4690061056477077e-08),
        (2001, 5.551115123125783e-17),
        (2003, 1.4571349404857159e-08),
    ])
    def test_residual_golden(self, nodes, residual):
        # the floats `weinkit scaling-verify --grid <nodes>` printed while
        # it integrated g by Simpson's rule, which the oracle keeps to the
        # last bit; the certificate's integral is 0 at every grid size
        assert GridProfile(1.25, 0.03, 0.96, 0.03,
                           nodes).integral_residual() == residual
        assert build_g(nodes=nodes).integral_residual() == 0

    def test_residual_agrees_with_handrolled_simpson(self):
        r = DEFAULT_GRID.own_grid()
        mine = DEFAULT_GRID.integral_residual()
        other = oracles.simpson_composite(list(DEFAULT_GRID.g(r)),
                                          1.0 / (DEFAULT_GRID.nodes - 1))
        assert abs(mine - other) < 1e-12

    def test_antiderivative_branches(self):
        p = build_g()
        assert p.antiderivative(0.5) == -0.5
        assert abs(p.antiderivative(1.0)) < 1e-12
        assert abs(p.antiderivative(1.3)) < 1e-12
        assert p.antiderivative(Fraction(1, 2)) == Fraction(-1, 2)
        assert p.antiderivative(p.zero_from) == p.antiderivative(2) == 0
        # continuity across every breakpoint
        for b in (0.5, p.rise_end, p.fall_start, p.zero_from):
            left = p.antiderivative(b - 1e-9)
            right = p.antiderivative(b + 1e-9)
            assert abs(left - right) < 1e-7
            assert p.antiderivative(b) == p.antiderivative(-b)

    def test_antiderivative_matches_quadrature(self):
        p = build_g()
        r = np.linspace(0, 1, 2001)
        g = [p.g(x) for x in r]
        for idx in (400, 1030, 1500, 1950, 2000):
            simpson_val = oracles.simpson_composite(
                g[:idx + 1] if idx % 2 == 0 else g[:idx + 2], 1.0 / 2000)
            target = p.antiderivative(r[idx if idx % 2 == 0 else idx + 1])
            assert abs(simpson_val - target) < 1e-10

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="height"):
            build_g(height=1.3)
        with pytest.raises(ValueError, match="height"):
            build_g(height=0)
        with pytest.raises(ValueError, match="widths"):
            build_g(rise_width=0)
        with pytest.raises(ValueError, match="plateau is empty"):
            build_g(rise_width=0.5)
        with pytest.raises(ValueError, match="strictly before 1"):
            build_g(fall_start=0.98, fall_width=0.03)
        with pytest.raises(ValueError, match="at least one node, got 0"):
            build_g(nodes=0)
        # a NaN width used to build a profile with NaN amplitude
        for name, value in [("rise_width", math.nan), ("fall_start", math.nan),
                            ("fall_width", math.inf)]:
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                build_g(**{name: value})

    def test_infeasible_height_rejected(self):
        # the default widths force amplitude ~1.12, above a 0.9 cap
        with pytest.raises(ValueError, match="area balance"):
            build_g(height=0.9)

    def test_json_fields(self):
        doc = build_g().to_json()
        assert doc["nodes"] == 2001
        assert abs(doc["integral_residual"]) < 1e-12
        assert 1.1 < doc["amplitude"] < 1.25

    def test_floats_are_read_as_their_decimals(self):
        p = build_g(height=1.25, rise_width=0.03, fall_start=0.96,
                    fall_width=0.03)
        assert (p.height, p.rise_width, p.fall_start, p.fall_width) == (
            Fraction(5, 4), Fraction(3, 100), Fraction(24, 25),
            Fraction(3, 100))
        assert build_g(Fraction(5, 4), Fraction(3, 100), Fraction(24, 25)) == p

    def test_samples_cover_the_unit_interval(self):
        rows = list(build_g(nodes=5).samples())
        assert [z for z, _, _ in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert all(type(x) is float for row in rows for x in row)
        assert list(build_g(nodes=1).samples()) == [(0.0, -1.0, 0.0)]


class TestBoundRatio:
    def test_default_grid_holds_cap(self):
        rep = bound_ratio()
        assert rep.holds
        assert rep.max_ratio <= 1.25 + 1e-6

    def test_max_is_amplitude_at_t_zero(self):
        p = build_g()
        rep = bound_ratio(p)
        # for g > 0 the ratio decreases in t, so the max sits at t = 0 on
        # the plateau
        assert rep.at_t == 0.0
        assert abs(rep.max_ratio - p.amplitude) < 1e-12
        assert p.rise_end <= rep.at_z <= p.fall_start
        # exactly: the amplitude, first reached where the rise ends
        assert (rep.max_ratio, rep.at_z) == (p.amplitude, p.rise_end)

    def test_grid_doubling_stable(self):
        a = bound_ratio(build_g(nodes=1001)).max_ratio
        b = bound_ratio(build_g(nodes=2001)).max_ratio
        assert abs(a - b) < 1e-4

    @staticmethod
    def dense_ratio(profile, t_max, nodes):
        """The whole (t, z) grid at once: first maximum in row-major order."""
        ts = np.linspace(0.0, t_max, nodes)
        zs = np.linspace(0.0, 1.0, nodes)
        g = profile.g(zs)
        ratio = ts[:, None] * g[None, :]
        ratio += 1.0
        np.divide(g[None, :], ratio, out=ratio)
        it, iz = divmod(int(np.argmax(ratio)), nodes)
        return float(ratio[it, iz]), float(ts[it]), float(zs[iz])

    @pytest.mark.parametrize("nodes", [1, 2, 3, 5, 301, 1999, 2001, 4001])
    def test_blocks_match_dense_grid(self, nodes):
        # the oracle's t = 0 read-off equals the whole grid's first
        # maximum, bit for bit, up to the largest double below 1; the
        # exact maximum is at least every cell, and equal once a node
        # lies on the plateau
        p = build_g()
        for t_max in (0.0, 0.5, 0.999, 1 - 2 ** -53):
            got = oracles.grid_ratio(DEFAULT_GRID, t_max, nodes)
            assert got == self.dense_ratio(DEFAULT_GRID, t_max, nodes)
            exact = float(bound_ratio(p, t_max=t_max).max_ratio)
            assert got[0] <= exact + 1e-15
            if nodes >= 5:
                assert abs(got[0] - exact) <= 1e-12

    @staticmethod
    def stub(values):
        class Stub:
            def g(self, zs):
                return np.resize(values, len(zs))
        return Stub()

    @staticmethod
    def blocked_ratio(profile, t_max, nodes, block):
        """The (t, z) grid scanned in blocks of about `block` cells, whole
        rows at a time; a later block replaces the maximum only when
        strictly larger."""
        ts = np.linspace(0.0, t_max, nodes)
        zs = np.linspace(0.0, 1.0, nodes)
        g = profile.g(zs)
        rows = max(1, block // nodes)
        best = None
        for start in range(0, nodes, rows):
            cells = g[None, :] / (ts[start:start + rows, None] * g[None, :]
                                  + 1.0)
            it, iz = divmod(int(np.argmax(cells)), nodes)
            if best is None or cells[it, iz] > best[0]:
                best = (float(cells[it, iz]), float(ts[start + it]),
                        float(zs[iz]))
        return best

    @pytest.mark.parametrize("values", [
        # g < -1 turns the ratio up in t: the maximum sits in a late row,
        # which the t = 0 read-off cannot see, so it must refuse
        [-1.7, 0.4, -2.9, 0.4, -2.9],
        # a g = 0 column ties every row at 0: the first row must win
        [-0.5, 0.0, -0.25]])
    @pytest.mark.parametrize("block", [1, 7, 64])
    @pytest.mark.parametrize("nodes", [3, 10, 41])
    def test_later_block_wins_only_when_larger(self, values, block, nodes):
        stub = self.stub(values)
        scanned = self.blocked_ratio(stub, 0.95, nodes, block)
        assert scanned == self.dense_ratio(stub, 0.95, nodes)
        if min(values) < -1:
            assert scanned[1] > 0.0
            with pytest.raises(ValueError, match="finite g >= -1"):
                oracles.grid_ratio(stub, t_max=0.95, nodes=nodes)
        else:
            assert oracles.grid_ratio(stub, t_max=0.95,
                                      nodes=nodes) == scanned

    @pytest.mark.parametrize("values", [
        # at t = 0 an infinite g gives 0 * inf = NaN, not g
        [0.4, math.inf], [0.4, math.nan]])
    def test_g_outside_read_off_range_rejected(self, values):
        with pytest.raises(ValueError, match="finite g >= -1"):
            oracles.grid_ratio(self.stub(values), t_max=0.95, nodes=10)

    def test_large_grid_is_one_row(self):
        with Budget("bound_ratio at 20001 nodes", 0.25):
            rep = bound_ratio(build_g(nodes=20001))
        assert rep.at_t == 0.0 and rep.holds

    def test_t_range_validation(self):
        with pytest.raises(ValueError, match="t = 1"):
            bound_ratio(t_max=1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            bound_ratio(t_max=-0.5)
        with pytest.raises(ValueError, match="nonnegative, got nan"):
            bound_ratio(t_max=math.nan)

    @pytest.mark.parametrize("coeffs, message", [
        # g = -2 on the core: a denominator t g + 1 can vanish
        ((-2,), "min g >= -1 and max g >= 0, got -2.0"),
        # 4u(1 - u) peaks at 1 inside the piece, where its Bernstein
        # coefficients (0, 2, 0) bound it by 2, a value g never takes
        ((0, 4, -4), "not attained")])
    def test_certificate_refuses_what_it_cannot_prove(self, coeffs, message):
        p = build_g()
        g, big_g = p._exact
        object.__setattr__(p, "_exact", ((g[0]._replace(coeffs=coeffs),
                                          *g[1:]), big_g))
        with pytest.raises(ValueError, match=message):
            bound_ratio(p)


class TestConformalBound:
    def test_value_and_limit(self):
        rep = conformal_bound()
        assert rep.holds
        assert abs(rep.value - 3.4903429574618414) < 1e-12
        assert rep.value < 4

    def test_series_cross_check(self):
        series = float(oracles.exp_series(Fraction(5, 4)))
        assert abs(conformal_bound().value - series) < 1e-6

    def test_rejects_nonpositive_height(self):
        with pytest.raises(ValueError):
            conformal_bound(0)

    def test_limit_can_fail(self):
        assert conformal_bound(1.25).holds
        assert not conformal_bound(math.log(5)).value < 4
        assert not conformal_bound(math.log(5)).holds

    @pytest.mark.parametrize("height", [
        math.log(4), math.nextafter(math.log(4), 2), 1.25, 2.5, 1e-300,
        700.0, Fraction(5, 4), Fraction(1386294361119890619, 10 ** 18)])
    def test_decided_exactly(self, height):
        # the doubles on both sides of ln 4 are decided by their exact
        # values, not by math.exp, and a large height ends at once
        assert conformal_bound(height).holds == (Fraction(height) < LN_4)

    @pytest.mark.parametrize("height, value", [
        (709, math.exp(709)), (710, None), (1e300, None)])
    def test_value_past_the_largest_float_is_null(self, height, value):
        # e^709 is a float, e^710 is not: the report then carries null, and
        # the verdict still comes from the rationals
        rep = conformal_bound(height)
        assert not rep.holds
        assert rep.value == value
        assert json.loads(json.dumps(rep.to_json()))["value"] == value


class TestHFamily:
    def test_all_checks_pass_on_default(self):
        rep = verify_h_family()
        assert rep.ok
        names = set(rep.checks)
        assert names == {"initial_identity", "linear_core",
                         "outside_identity", "slope_positive",
                         "mixed_partial_fd"}
        assert rep.checks["initial_identity"].value == 0.0
        assert rep.checks["linear_core"].value < 1e-12
        assert rep.checks["outside_identity"].value < 1e-12
        assert abs(rep.checks["slope_positive"].value - 1e-3) < 1e-12
        assert rep.checks["mixed_partial_fd"].value < 1e-4

    def test_values_are_exact(self):
        checks = verify_h_family().checks
        assert {name: check.value for name, check in checks.items()} == {
            "initial_identity": 0, "linear_core": 0, "outside_identity": 0,
            "slope_positive": Fraction(1, 1000), "mixed_partial_fd": 0}
        assert all(isinstance(c.value, Fraction) for c in checks.values())

    def test_oddness_on_grid(self):
        p = build_g()
        zs = np.linspace(-1.5, 1.5, 601)
        ts = np.linspace(0, 0.999, 11)
        assert max(abs(p.h(t, z) + p.h(t, -z)) for t in ts for z in zs) \
            < 1e-12
        for z in (Fraction(1, 3), Fraction(51, 100), Fraction(97, 100)):
            assert p.h(Fraction(1, 2), -z) == -p.h(Fraction(1, 2), z)

    def test_core_compression_factor(self):
        p = build_g()
        assert abs(p.h(0.75, 0.4) - 0.1) < 1e-12
        assert p.h(0.5, -0.5) == -0.25
        assert p.h(Fraction(3, 4), Fraction(2, 5)) == Fraction(1, 10)

    def test_grid_doubling_stable(self):
        a = verify_h_family(build_g(nodes=2001))
        b = verify_h_family(build_g(nodes=4001))
        for name in a.checks:
            assert abs(a.checks[name].value - b.checks[name].value) < 1e-4

    def test_t_max_validation(self):
        with pytest.raises(ValueError, match="t = 1"):
            verify_h_family(t_max=1.0)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(t_max=math.nan), "t_max must be nonnegative"),
        (dict(nodes=2), "nodes >= 3, got 2"),
        (dict(t_nodes=1), "no grid t lies in"),
        (dict(t_max=0.0), "no grid t lies in"),
        (dict(fd_step=0.6), "no grid t lies in"),
        (dict(fd_step=0), "fd_step must be a finite positive number"),
        (dict(fd_step=math.nan), "fd_step must be a finite positive number"),
        (dict(fd_step=math.inf), "fd_step must be a finite positive number")])
    def test_grid_validation(self, kwargs, message):
        # the oracle's float grid needs an interior t row for its finite
        # difference; each used to end in numpy's zero-size reduction
        # error or, for fd_step = 0, a NaN check
        with pytest.raises(ValueError, match=message):
            oracles.grid_h_family(DEFAULT_GRID, **{"nodes": 301, **kwargs})

    @pytest.mark.parametrize("t_max", [0, 0.0, 1e-9, Fraction(1, 2)])
    def test_small_t_max_holds(self, t_max):
        # the statements hold trivially at t = 0; the certificate needs no
        # t grid, so t_max = 0 is no longer refused
        rep = verify_h_family(t_max=t_max)
        assert rep.ok
        assert rep.checks["slope_positive"].value == 1 - Fraction(str(t_max))
        assert bound_ratio(t_max=t_max).holds

    @pytest.mark.parametrize("kwargs, message", [
        (dict(t_max=math.nan), "t_max must be nonnegative"),
        (dict(t_max=-1e-9), "t_max must be nonnegative"),
        (dict(fd_step=-1e-3), "fd_step must be a finite positive number"),
        (dict(fd_step=0), "fd_step must be a finite positive number"),
        (dict(fd_step=math.nan), "fd_step must be a finite positive number"),
        (dict(fd_step=math.inf), "fd_step must be a finite positive number")])
    def test_argument_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            verify_h_family(**kwargs)

    def test_json_shape(self):
        doc = verify_h_family(build_g(nodes=501)).to_json()
        assert doc["ok"] is True
        assert doc["checks"]["slope_positive"]["ok"] is True
        assert "formula" in doc


class Skewed(GridProfile):
    """G off by 1e-9 |r| and g stretched by 3/2: linear_core and
    outside_identity peak at t = t_max, and slope_positive bottoms out
    there, so each extreme cell sits in the last row block."""

    def antiderivative(self, r):
        return super().antiderivative(r) + 1e-9 * np.abs(
            np.asarray(r, dtype=float))

    def g(self, r):
        return 1.5 * super().g(r)


class WithNaN(GridProfile):
    """g is NaN at z = 0, so every slope and difference in that column
    is NaN too."""

    def g(self, r):
        out = super().g(r)
        out[np.asarray(r) == 0.0] = math.nan
        return out


class TestHFamilyBlocks:
    """The row blocks of oracles.grid_h_family against the whole (t, z)
    grid of oracles.h_family_whole_grid: equal values, bit for bit."""

    @staticmethod
    def assert_whole_grid(profile, **grid):
        try:
            want = oracles.h_family_whole_grid(profile, **grid)
        except ValueError:
            with pytest.raises(ValueError, match="no grid t lies in"):
                oracles.grid_h_family(profile, **grid)
            return None
        got = oracles.grid_h_family(profile, **grid)
        # through json, so that NaN equals NaN
        assert json.dumps(got) == json.dumps(want)
        return got

    @pytest.mark.parametrize("nodes", [3, 5, 301, 1999, 2001, 2003, 4001])
    def test_nodes(self, nodes):
        got = self.assert_whole_grid(DEFAULT_GRID, nodes=nodes)
        assert_identities_agree(verify_h_family(), got)

    @pytest.mark.parametrize("t_nodes", [2, 3, 51, 201])
    @pytest.mark.parametrize("t_max", [0.5, 0.999, 1 - 2 ** -53])
    def test_t_grid(self, t_max, t_nodes):
        self.assert_whole_grid(DEFAULT_GRID, nodes=301, t_max=t_max,
                               t_nodes=t_nodes)

    @pytest.mark.parametrize("rows", [1, 7, 200, None])
    @pytest.mark.parametrize("fd_step", [1e-3, 0.0123, 0.2, 0.49])
    def test_t_mid_inside_a_block(self, monkeypatch, rows, fd_step):
        # t rows are 0.999/200 apart, so t_mid runs from row 3 to row 197
        # at fd_step 0.0123 and from row 41 to row 160 at 0.2: both ends
        # fall inside a block of 7 rows
        if rows is not None:
            monkeypatch.setattr(oracles, "BLOCK_CELLS", rows * 301)
        self.assert_whole_grid(DEFAULT_GRID, nodes=301, fd_step=fd_step)

    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_extreme_cell_in_the_last_block(self, monkeypatch, rows):
        if rows is not None:
            monkeypatch.setattr(oracles, "BLOCK_CELLS", rows * 301)
        p = Skewed(1.25, 0.03, 0.96, 0.03, 2001)
        checks = self.assert_whole_grid(p, nodes=301, t_max=0.9)
        zs = np.linspace(-1.5, 1.5, 301)
        core = zs[np.abs(zs) <= 0.5]
        assert checks["linear_core"] == float(
            np.max(np.abs(p.h(0.9, core) - (1.0 - 0.9) * core))) > 1e-12
        assert checks["slope_positive"] == float(
            np.min(p.slope(0.9, zs))) < 0

    @pytest.mark.parametrize("rows", [1, None])
    def test_nan_propagates(self, monkeypatch, rows):
        if rows is not None:
            monkeypatch.setattr(oracles, "BLOCK_CELLS", rows * 301)
        checks = self.assert_whole_grid(
            WithNaN(1.25, 0.03, 0.96, 0.03, 2001), nodes=301)
        for name in ("slope_positive", "mixed_partial_fd"):
            assert math.isnan(checks[name])


class TestCertificateAgainstOracle:
    @pytest.mark.parametrize("nodes", [301, 2001])
    def test_default_profile(self, nodes):
        assert_agrees(build_g(nodes=nodes), nodes)

    @pytest.mark.parametrize("nodes", [301, 2001])
    def test_csv_columns(self, nodes, tmp_path):
        path = tmp_path / "profile.csv"
        result = invoke(["scaling-verify", "--grid", str(nodes),
                         "--csv", str(path)])
        assert result.exit_code == 0
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["z", "g", "G"] and len(rows) == nodes + 1
        columns = zip(*([float(x) for x in row] for row in rows[1:]))
        assert_samples_agree(*columns,
                             GridProfile(1.25, 0.03, 0.96, 0.03, nodes))


def _peak_rss_mib(*args, cwd=None):
    """Peak RSS of a python child running ARGS, read by os.wait4."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, *args], env=env, cwd=cwd,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0, args
    return usage.ru_maxrss / 1024  # KiB on Linux


def test_family_memory_grows_with_nodes_only(tmp_path):
    # the whole 201 x 20001 float grid peaked at 133 MiB; the certificate
    # samples nothing
    p = build_g(nodes=20001)
    tracemalloc.start()
    try:
        verify_h_family(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"
    # with numpy out, the grid command and the corpus cost what any other
    # command does (numpy alone used to add about 10 MiB)
    cli = ["-m", "weinkit.cli"]
    base = _peak_rss_mib(*cli, "chord-degree", "--down", "2", "--up", "0",
                         "--ind", "0")
    for args in (["scaling-verify", "--grid", "2001", "--csv", "p.csv"],
                 ["examples"]):
        peak = _peak_rss_mib(*cli, *args, cwd=tmp_path)
        assert peak - base <= 2, f"{args[0]}: {peak:.1f} vs {base:.1f} MiB"


class TestRandomFeasibleProfiles:
    @given(st.integers(min_value=5, max_value=80),
           st.integers(min_value=5, max_value=80),
           st.integers(min_value=600, max_value=950))
    @settings(max_examples=40, deadline=None)
    def test_feasible_params_keep_all_guarantees(self, wr, wf, fs):
        rise_w, fall_w, fall_start = wr / 1000, wf / 1000, fs / 1000
        if 0.5 + rise_w >= fall_start or fall_start + fall_w >=  1:
            return
        amp = exact_amplitude(Fraction(wr, 1000), Fraction(fs, 1000),
                              Fraction(wf, 1000))
        if amp > Fraction(5, 4):
            with pytest.raises(ValueError, match="area balance"):
                build_g(rise_width=rise_w, fall_start=fall_start,
                        fall_width=fall_w, nodes=501)
            return
        p = build_g(rise_width=rise_w, fall_start=fall_start,
                    fall_width=fall_w, nodes=501)
        assert p.amplitude == amp
        assert p.antiderivative(1) == 0
        rep = verify_h_family(p)
        assert rep.ok, {k: v for k, v in rep.checks.items() if not v.ok}
        ratio = bound_ratio(p)
        assert ratio.holds and ratio.max_ratio == amp
        assert_agrees(p, 401, t_nodes=11)
