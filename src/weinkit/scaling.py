"""Exact certificate for the interpolation profile behind the
action-rescaling estimates.

The profile g lives on [0, 1]: identically -1 on [0, 1/2], a smoothstep
rise to a plateau, a smoothstep fall, and identically 0 strictly before 1.
Its breakpoints are rationals, and the plateau amplitude is calibrated so
the integral vanishes (103/92 for the default breakpoints).  That makes
h(t, z) = z + t * G(|z|) * sign(z) (G the antiderivative of g) a family of
odd maps fixing everything outside [-1, 1], compressing [-1/2, 1/2]
linearly by 1 - t, and staying monotone for t < 1.

g and G are piecewise polynomials with rational coefficients, so every
statement is proved from the pieces in exact arithmetic, for all t and z
at once: the range of g from the Bernstein coefficients of its pieces,
the integral and the identities of G from term-by-term integration, and
e^height < 4 from Taylor bounds.  Nothing is sampled: `GProfile.samples`
evaluates the pieces in floats only for the --csv dump.
"""

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import zip_longest
from operator import attrgetter
from typing import NamedTuple

from .serialize import BOOL, FLOAT, RAW, Record, as_int

RATIO_CAP = Fraction(5, 4)   # height budget for g and for g/(t g + 1)
CONFORMAL_LIMIT = 4          # e^{height} must stay below this


class _Piece(NamedTuple):
    """sum(coeffs[j] * u ** j) at r = lo + width * u, for u in [0, 1]; the
    last piece of a profile also holds past its end."""
    lo: object
    width: object
    coeffs: tuple

    def at(self, r):
        u = (r - self.lo) / self.width
        acc = 0
        for a in reversed(self.coeffs):
            acc = acc * u + a
        return acc

    def bernstein(self):
        """The coefficients in the Bernstein basis of the same degree: the
        first and last are the end values, and every value of the piece
        lies between the least and the largest."""
        n = len(self.coeffs) - 1
        return [sum(Fraction(math.comb(k, j), math.comb(n, j)) * a
                    for j, a in enumerate(self.coeffs[:k + 1]))
                for k in range(n + 1)]

    def integral(self, start):
        """start + the integral of this piece from lo, as a piece."""
        return _Piece(self.lo, self.width, (start, *(
            self.width * a / (j + 1) for j, a in enumerate(self.coeffs))))

    def in_floats(self):
        return _Piece(float(self.lo), float(self.width),
                      tuple(map(float, self.coeffs)))


def _rational(x, name):
    """X as a Fraction.  A float is read as the shortest decimal that
    rounds to it, so 0.03 is 3/100 and 1.25 is 5/4."""
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x}")
        return Fraction(repr(float(x)))
    return Fraction(x)


def _count(nodes):
    nodes = as_int(nodes, "nodes")
    if nodes < 1:
        raise ValueError(f"the grid needs at least one node, got {nodes}")
    return nodes


class GProfile(Record):
    """The compactly supported profile with its calibrated amplitude.

    Breakpoints: -1 on [0, 1/2]; rise on [1/2, 1/2 + rise_width]; plateau
    at `amplitude` up to fall_start; fall on [fall_start, fall_start +
    fall_width]; 0 afterwards.  The parameters are read as rationals and
    amplitude is derived, not chosen.  `nodes` is how many samples
    `samples` yields; no bound reads it.  `_exact` and `_floats` hold the
    pieces of g and of G, in rationals and in floats.
    """
    __slots__ = ("height", "rise_width", "fall_start", "fall_width", "nodes",
                 "amplitude", "_exact", "_floats")

    def __init__(self, height, rise_width, fall_start, fall_width, nodes):
        rise_width = _rational(rise_width, "rise_width")
        fall_start = _rational(fall_start, "fall_start")
        fall_width = _rational(fall_width, "fall_width")
        if not 0 < height <= RATIO_CAP:
            raise ValueError(f"height must lie in (0, {float(RATIO_CAP)}], "
                             f"got {height}")
        height = _rational(height, "height")
        if rise_width <= 0 or fall_width <= 0:
            raise ValueError("transition widths must be positive")
        rise_end = Fraction(1, 2) + rise_width
        if rise_end >= fall_start:
            raise ValueError(f"plateau is empty: rise ends at {rise_end}"
                             f", fall starts at {fall_start}")
        zero_from = fall_start + fall_width
        if zero_from >= 1:
            raise ValueError("profile must vanish strictly before 1; fall "
                             f"ends at {zero_from}")
        nodes = _count(nodes)
        # the fixed part integrates to -(1 + w_r)/2 and the amplitude
        # multiplies (w_r + w_f)/2 + plateau, so zero total integral forces
        w_r, w_f = rise_width, fall_width
        plateau = fall_start - rise_end
        v = (1 + w_r) / (w_r + 2 * plateau + w_f)
        if v > height:
            raise ValueError(
                f"area balance needs amplitude {float(v):.6f} > height cap "
                f"{float(height)}; widen the plateau or raise the "
                "height")
        Record.__init__(self, height, rise_width, fall_start, fall_width,
                        nodes, v)
        # rise and fall are affine images of the smoothstep 3u^2 - 2u^3
        g = (_Piece(Fraction(0), Fraction(1, 2), (-1,)),
             _Piece(Fraction(1, 2), w_r, (-1, 0, 3 * (v + 1), -2 * (v + 1))),
             _Piece(rise_end, plateau, (v,)),
             _Piece(fall_start, w_f, (v, 0, -3 * v, 2 * v)),
             _Piece(zero_from, 1 - zero_from, (0,)))
        big_g, start = [], Fraction(0)
        for piece in g:
            big_g.append(piece.integral(start))
            start = sum(big_g[-1].coeffs)
        exact = (g, tuple(big_g))
        object.__setattr__(self, "_exact", exact)
        object.__setattr__(self, "_floats", tuple(
            tuple(piece.in_floats() for piece in pieces) for pieces in exact))

    @property
    def rise_end(self):
        return Fraction(1, 2) + self.rise_width

    @property
    def zero_from(self):
        return self.fall_start + self.fall_width

    def _at(self, which, r):
        """Piece table WHICH (0 for g, 1 for G) at |r|: exact for a
        rational r, in floats for a float."""
        pieces = (self._floats if isinstance(r, float) else self._exact)[which]
        r = abs(r)
        return pieces[bisect_right(pieces, r, key=attrgetter("lo")) - 1].at(r)

    def g(self, r):
        """g(|r|)."""
        return self._at(0, r)

    def antiderivative(self, r):
        """G(|r|) = int_0^|r| g, by term-by-term integration of the pieces."""
        return self._at(1, r)

    def h(self, t, z):
        """The interpolation family z + t G(|z|) sign(z), odd in z."""
        big = self.antiderivative(z)
        return z + t * (big if z >= 0 else -big)

    def slope(self, t, z):
        """dh/dz = t g(|z|) + 1, the monotonicity quantity."""
        return t * self.g(z) + 1

    def g_range(self):
        """(min g, max g, the least z where g is max), from the Bernstein
        coefficients of the pieces; raises unless both bounds are values
        g takes at a breakpoint."""
        pieces = self._exact[0]
        hull = [b for piece in pieces for b in piece.bernstein()]
        low, high = min(hull), max(hull)
        ends = [end for piece in pieces for end in (
            (piece.lo, piece.coeffs[0]),
            (piece.lo + piece.width, sum(piece.coeffs)))]
        taken = {value for _, value in ends}
        if low not in taken or high not in taken:
            raise ValueError("the Bernstein bounds of g are not attained")
        return low, high, next(r for r, value in ends if value == high)

    def integral_residual(self):
        """The integral of g over [0, 1], exactly: 0 by the calibration."""
        return self.antiderivative(1)

    def samples(self):
        """(z, g(z), G(z)) in floats at `nodes` evenly spaced z in [0, 1]."""
        last = max(self.nodes - 1, 1)
        for i in range(self.nodes):
            z = i / last
            yield z, self.g(z), self.antiderivative(z)

    def to_json(self):
        return {
            "height": float(self.height),
            "rise_width": float(self.rise_width),
            "fall_start": float(self.fall_start),
            "fall_width": float(self.fall_width),
            "nodes": self.nodes,
            "amplitude": float(self.amplitude),
            "integral_residual": float(self.integral_residual()),
        }


def build_g(height=1.25, rise_width=0.03, fall_start=0.96, fall_width=0.03,
            nodes=2001) -> GProfile:
    """Calibrated profile; raises when the height cannot balance the area."""
    return GProfile(height, rise_width, fall_start, fall_width, nodes)


class RatioReport(Record):
    __slots__ = ("max_ratio", "at_t", "at_z", "cap", "tolerance", "holds")

    def to_json(self):
        return {
            "formula": "max g(z) / (t g(z) + 1) over 0 <= t <= t_max and "
                       "0 <= z <= 1, from the pieces of g",
            "max_ratio": float(self.max_ratio),
            "argmax": {"t": float(self.at_t), "z": float(self.at_z)},
            "cap": float(self.cap),
            "tolerance": float(self.tolerance),
            "holds": self.holds,
        }


def _t_max(t_max):
    """t_max as a rational in [0, 1): t g + 1 >= 1 - t vanishes at t = 1,
    so t_max >= 1 is rejected rather than silently clipped."""
    if t_max >= 1:
        raise ValueError(
            "t g + 1 vanishes at t = 1 where g = -1; need t_max < 1, got "
            f"{t_max}")
    if not t_max >= 0:
        raise ValueError(f"t_max must be nonnegative, got {t_max}")
    return _rational(t_max, "t_max")


def bound_ratio(profile: GProfile = None, t_max=0.999,
                tolerance=1e-6) -> RatioReport:
    """The maximum of g/(t g + 1) over 0 <= t <= t_max and 0 <= z <= 1.

    With min g >= -1 and t < 1 every denominator is at least 1 - t > 0.
    Where g >= 0 the ratio is at most g, with equality at t = 0, and where
    g < 0 it is negative; so with max g >= 0 the maximum is max g (the
    amplitude), reached at t = 0 and the least z where g takes it.
    """
    if profile is None:
        profile = build_g()
    _t_max(t_max)
    tolerance = _rational(tolerance, "tolerance")
    low, high, at_z = profile.g_range()
    if low < -1 or high < 0:
        raise ValueError("the ratio bound needs min g >= -1 and max g >= 0, "
                         f"got {float(low)} and {float(high)}")
    return RatioReport(high, Fraction(0), at_z, RATIO_CAP, tolerance,
                       high <= RATIO_CAP + tolerance)


class ConformalReport(Record):
    __slots__ = ("exponent", "value", "limit", "holds")

    def to_json(self):
        return {
            "formula": "conformal factor <= exp(height) < 4",
            "exponent": float(self.exponent),
            "value": self.value,
            "limit": float(self.limit),
            "holds": self.holds,
        }


def _exp_below(h, limit):
    """Whether e^h < limit, for rationals h > 0 and limit.  The Taylor sum
    S of e^h up to h^(k-1)/(k-1)! is a lower bound, and once k + 1 > h,
    S + h^k/k! * (k + 1)/(k + 1 - h) an upper one (the tail is below a
    geometric series); terms are added until one side decides.  e^h is
    transcendental for rational h != 0, so it never equals the limit."""
    total, term, k = Fraction(0), Fraction(1), 0
    while True:
        total += term
        k += 1
        term = term * h / k
        if total >= limit:
            return False
        if k + 1 > h and total + term * (k + 1) / (k + 1 - h) < limit:
            return True


def conformal_bound(height=1.25) -> ConformalReport:
    """e^height against the limit 4, decided in rationals by `_exp_below`:
    at the default 5/4 the upper bound 1 + h + h^2/2 * 3/(3 - h) = 3.589...
    settles e^{5/4} < 4, which is e^5 < 256.  `value` is math.exp(height),
    for display, or None where e^height is past the largest float."""
    if height <= 0:
        raise ValueError("height must be positive")
    exponent = _rational(height, "height")
    try:
        value = math.exp(exponent)
    except OverflowError:
        value = None
    return ConformalReport(exponent, value, CONFORMAL_LIMIT,
                           _exp_below(exponent, CONFORMAL_LIMIT))


class CheckResult(Record):
    __slots__ = ("value", "tolerance", "ok")
    _codecs = {"value": FLOAT, "tolerance": RAW, "ok": BOOL}
    _schema = False


class HFamilyReport(Record):
    __slots__ = ("checks", "ok", "nodes", "t_max", "fd_step")

    def to_json(self):
        return {
            "formula": "h(t, z) = z + t G(|z|) sign(z); five identities, "
                       "from the pieces of G",
            "nodes": self.nodes,
            "t_max": float(self.t_max),
            "fd_step": self.fd_step,
            "checks": {k: v.to_json() for k, v in self.checks.items()},
            "ok": self.ok,
        }


def verify_h_family(profile: GProfile = None, t_max=0.999,
                    fd_step=1e-3) -> HFamilyReport:
    """Prove the five defining identities of the family for every
    0 <= t <= t_max and every z.  Each value is an upper bound on the
    largest deviation, 0 when the identity is exact:

    1. h(0, z) = z, as h - z = t G(|z|) sign(z) has the factor t;
    2. h(t, z) = (1 - t) z on [-1/2, 1/2]: there t |G(r) + r| <= t_max
       times the sum of |coefficients| of G + r on each piece of [0, 1/2];
    3. h(t, z) = z for |z| >= 1: g's last piece is 0, so G's is the
       constant G(1) = int g and |h - z| <= t_max |G(1)|;
    4. dh/dz = t g + 1 > 0: its value is the exact minimum,
       1 + t_max min(g, 0), which is 1 - t_max as min g = -1;
    5. the central difference of dh/dz in t at fd_step equals g: t g + 1
       is affine in t, so the difference is exact at every step.

    The report's `nodes` is the profile's sample count; no check reads it.
    """
    if profile is None:
        profile = build_g()
    t_max = _t_max(t_max)
    if not 0 < fd_step < math.inf:
        raise ValueError(
            f"fd_step must be a finite positive number, got {fd_step}")
    big_g = profile._exact[1]
    core = max(sum(abs(a + b) for a, b in zip_longest(
        piece.coeffs, (piece.lo, piece.width), fillvalue=0))
        for piece in big_g if piece.lo + piece.width <= Fraction(1, 2))
    low = profile.g_range()[0]
    min_slope = 1 + t_max * min(low, 0)
    checks = {
        "initial_identity": _check(Fraction(0), 1e-12),
        "linear_core": _check(t_max * core, 1e-12),
        "outside_identity": _check(
            t_max * abs(profile.integral_residual()), 1e-12),
        "slope_positive": CheckResult(min_slope, 0.0, min_slope > 0),
        "mixed_partial_fd": _check(Fraction(0), 1e-4),
    }
    return HFamilyReport(checks, all(c.ok for c in checks.values()),
                         profile.nodes, t_max, fd_step)


def _check(value, tolerance):
    return CheckResult(value, tolerance, value <= tolerance)
