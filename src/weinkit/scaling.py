"""Numerical verification of the interpolation profile behind the
action-rescaling estimates.

The profile g lives on [0, 1]: identically -1 on [0, 1/2], a smoothstep
rise to a plateau, a smoothstep fall, and identically 0 strictly before 1.
The plateau amplitude is calibrated so the integral vanishes, which makes
h(t, z) = z + t * G(|z|) * sign(z) (G the antiderivative of g) a family of
odd maps fixing everything outside [-1, 1], compressing [-1/2, 1/2]
linearly by 1 - t, and staying monotone for t < 1.  Everything checked
here is a finite-dimensional surrogate: max of g/(t g + 1) over a grid,
exactness of the defining identities on a grid, and the conformal factor
bound e^{5/4} < 4.
"""

import math
from dataclasses import dataclass, field

from .serialize import as_int

# numpy is imported inside the functions that build a float grid, not here,
# so `import weinkit` and every command but scaling-verify and examples run
# without loading it.

RATIO_CAP = 1.25          # height budget for g and for g/(t g + 1)
CONFORMAL_LIMIT = 4.0     # e^{height} must stay below this
BLOCK_CELLS = 1 << 15     # (t, z) cells alive at once in verify_h_family


def _simpson(y, x):
    """Composite Simpson's rule over an odd count of nodes, in the
    spacing-aware form (Cartwright 2017).  Keep the operation order:
    reports print the result to the last bit, and the textbook uniform
    form rounds differently (0.0 where this gives 5.55e-17 at 2001 nodes)."""
    import numpy as np

    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum = h0 + h1
    h0divh1 = h0 / h1
    terms = hsum / 6.0 * (y[0:-2:2] * (2.0 - 1.0 / h0divh1)
                          + y[1::2] * (hsum * (hsum / (h0 * h1)))
                          + y[2::2] * (2.0 - h0divh1))
    return np.sum(terms)


def _smoothstep(u):
    return u * u * (3.0 - 2.0 * u)


def _smoothstep_integral(u):
    # int_0^u s = u^3 - u^4/2
    return u ** 3 - 0.5 * u ** 4


@dataclass(frozen=True)
class GProfile:
    """The compactly supported profile with its calibrated amplitude.

    Breakpoints: -1 on [0, 1/2]; rise on [1/2, 1/2 + rise_width]; plateau
    at `amplitude` up to fall_start; fall on [fall_start, fall_start +
    fall_width]; 0 afterwards.  amplitude is derived, not chosen.
    """
    height: float
    rise_width: float
    fall_start: float
    fall_width: float
    nodes: int
    amplitude: float = field(init=False)

    def __post_init__(self):
        for name in ("rise_width", "fall_start", "fall_width"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(
                    f"{name} must be finite, got {getattr(self, name)}")
        if not 0 < self.height <= RATIO_CAP:
            raise ValueError(
                f"height must lie in (0, {RATIO_CAP}], got {self.height}")
        if self.rise_width <= 0 or self.fall_width <= 0:
            raise ValueError("transition widths must be positive")
        if 0.5 + self.rise_width >= self.fall_start:
            raise ValueError("plateau is empty: rise ends at "
                             f"{0.5 + self.rise_width}, fall starts at "
                             f"{self.fall_start}")
        if self.fall_start + self.fall_width >= 1:
            raise ValueError(
                "profile must vanish strictly before 1; fall ends at "
                f"{self.fall_start + self.fall_width}")
        if self.nodes < 3 or self.nodes % 2 == 0:
            raise ValueError("Simpson quadrature needs an odd node count >= 3")
        # integral of the fixed part is -(1/2) - w_r/2; the amplitude
        # multiplies w_r/2 + plateau + w_f/2, so zero total integral forces
        w_r, w_f = self.rise_width, self.fall_width
        plateau = self.fall_start - 0.5 - w_r
        amp = (0.5 + 0.5 * w_r) / (0.5 * w_r + plateau + 0.5 * w_f)
        if amp > self.height * (1 + 1e-12):
            raise ValueError(
                f"area balance needs amplitude {amp:.6f} > height cap "
                f"{self.height}; widen the plateau or raise the height")
        object.__setattr__(self, "amplitude", amp)

    @property
    def rise_end(self):
        return 0.5 + self.rise_width

    @property
    def zero_from(self):
        return self.fall_start + self.fall_width

    def g(self, r):
        """Profile values, vectorized; arguments are taken by |r|."""
        import numpy as np

        r = np.abs(np.asarray(r, dtype=float))
        v = self.amplitude
        out = np.zeros_like(r)
        out[r < 0.5] = -1.0
        m = (r >= 0.5) & (r < self.rise_end)
        u = (r[m] - 0.5) / self.rise_width
        out[m] = -1.0 + (v + 1.0) * _smoothstep(u)
        m = (r >= self.rise_end) & (r < self.fall_start)
        out[m] = v
        m = (r >= self.fall_start) & (r < self.zero_from)
        u = (r[m] - self.fall_start) / self.fall_width
        out[m] = v * (1.0 - _smoothstep(u))
        return out

    def antiderivative(self, r):
        """G(r) = int_0^r g, vectorized, by the closed piecewise form."""
        import numpy as np

        r = np.abs(np.asarray(r, dtype=float))
        v = self.amplitude
        w_r, w_f = self.rise_width, self.fall_width
        g_rise_end = -self.rise_end + (v + 1.0) * w_r * 0.5
        g_fall_start = g_rise_end + v * (self.fall_start - self.rise_end)
        g_tail = g_fall_start + v * w_f * 0.5
        out = np.empty_like(r)
        m = r < 0.5
        out[m] = -r[m]
        m = (r >= 0.5) & (r < self.rise_end)
        u = (r[m] - 0.5) / w_r
        out[m] = -r[m] + (v + 1.0) * w_r * _smoothstep_integral(u)
        m = (r >= self.rise_end) & (r < self.fall_start)
        out[m] = g_rise_end + v * (r[m] - self.rise_end)
        m = (r >= self.fall_start) & (r < self.zero_from)
        u = (r[m] - self.fall_start) / w_f
        out[m] = g_fall_start + v * (
            (r[m] - self.fall_start) - w_f * _smoothstep_integral(u))
        out[r >= self.zero_from] = g_tail
        return out

    def h(self, t, z):
        """The interpolation family, odd in z, broadcast over t and z."""
        import numpy as np

        t = np.asarray(t, dtype=float)
        z = np.asarray(z, dtype=float)
        return z + t * self.antiderivative(np.abs(z)) * np.sign(z)

    def slope(self, t, z):
        """dh/dz = t g(|z|) + 1, the monotonicity quantity."""
        import numpy as np

        t = np.asarray(t, dtype=float)
        z = np.asarray(z, dtype=float)
        return t * self.g(z) + 1.0

    def own_grid(self):
        import numpy as np

        return np.linspace(0.0, 1.0, self.nodes)

    def integral_residual(self):
        """Simpson quadrature of g over [0, 1] on the profile's own grid.

        The default breakpoints sit on even grid indices and the pieces are
        cubics, so composite Simpson is exact there up to roundoff.
        """
        r = self.own_grid()
        return float(_simpson(self.g(r), r))

    def to_json(self):
        return {
            "height": self.height,
            "rise_width": self.rise_width,
            "fall_start": self.fall_start,
            "fall_width": self.fall_width,
            "nodes": self.nodes,
            "amplitude": self.amplitude,
            "integral_residual": self.integral_residual(),
        }


def build_g(height=1.25, rise_width=0.03, fall_start=0.96, fall_width=0.03,
            nodes=2001) -> GProfile:
    """Calibrated profile; raises when the height cannot balance the area."""
    return GProfile(float(height), float(rise_width), float(fall_start),
                    float(fall_width), as_int(nodes, "nodes"))


@dataclass(frozen=True)
class RatioReport:
    max_ratio: float
    at_t: float
    at_z: float
    cap: float
    tolerance: float
    holds: bool

    def to_json(self):
        return {
            "formula": "max g(z) / (t g(z) + 1) over the (t, z) grid",
            "max_ratio": self.max_ratio,
            "argmax": {"t": self.at_t, "z": self.at_z},
            "cap": self.cap,
            "tolerance": self.tolerance,
            "holds": self.holds,
        }


def _check_t_max(t_max):
    """Both grid checks need 0 <= t_max < 1: t g + 1 >= 1 - t vanishes at
    t = 1, so t_max >= 1 is rejected rather than silently clipped."""
    if t_max >= 1:
        raise ValueError(
            "t g + 1 vanishes at t = 1 where g = -1; need t_max < 1, got "
            f"{t_max}")
    if not t_max >= 0:
        raise ValueError(f"t_max must be nonnegative, got {t_max}")


def bound_ratio(profile: GProfile = None, t_max=0.999, nodes=2001,
                tolerance=1e-6) -> RatioReport:
    """Grid maximum of g/(t g + 1) for t in [0, t_max], z in [0, 1].

    The (t, z) grid's first maximum in row-major order is read off its
    t = 0 row.  For finite g >= -1 and 0 <= t < 1 the rounded denominator
    fl(fl(t g) + 1) is >= 1 when g >= 0 and lies in (0, 1] when g < 0, so
    every cell rounds to at most g, the exact value of its t = 0 cell.
    """
    if profile is None:
        profile = build_g()
    _check_t_max(t_max)
    nodes = as_int(nodes, "nodes")
    if nodes < 1:
        raise ValueError(f"the grid needs at least one node, got {nodes}")
    import numpy as np

    zs = np.linspace(0.0, 1.0, nodes)
    g = profile.g(zs)
    if not (np.isfinite(g).all() and g.min() >= -1.0):
        raise ValueError(
            f"the ratio bound needs finite g >= -1, got min g = {g.min()}")
    iz = int(np.argmax(g))
    mx = float(g[iz])
    return RatioReport(mx, 0.0, float(zs[iz]), RATIO_CAP, tolerance,
                       mx <= RATIO_CAP + tolerance)


@dataclass(frozen=True)
class ConformalReport:
    exponent: float
    value: float
    limit: float
    holds: bool

    def to_json(self):
        return {
            "formula": "conformal factor <= exp(height) < 4",
            "exponent": self.exponent,
            "value": self.value,
            "limit": self.limit,
            "holds": self.holds,
        }


def conformal_bound(height=1.25) -> ConformalReport:
    """exp(height) compared against the limit 4; exp(5/4) = 3.4903... < 4."""
    if height <= 0:
        raise ValueError("height must be positive")
    value = math.exp(height)
    return ConformalReport(float(height), value, CONFORMAL_LIMIT,
                           value < CONFORMAL_LIMIT)


@dataclass(frozen=True)
class CheckResult:
    value: float
    tolerance: float
    ok: bool

    def to_json(self):
        return {"value": self.value, "tolerance": self.tolerance,
                "ok": self.ok}


@dataclass(frozen=True)
class HFamilyReport:
    checks: dict
    ok: bool
    nodes: int
    t_max: float
    fd_step: float

    def to_json(self):
        return {
            "formula": "h(t, z) = z + t G(|z|) sign(z); five grid identities",
            "nodes": self.nodes,
            "t_max": self.t_max,
            "fd_step": self.fd_step,
            "checks": {k: v.to_json() for k, v in self.checks.items()},
            "ok": self.ok,
        }


def verify_h_family(profile: GProfile = None, nodes=2001, t_max=0.999,
                    t_nodes=201, fd_step=1e-3) -> HFamilyReport:
    """Check the five defining identities of the family on a grid:

    1. h(0, z) = z;
    2. h(t, z) = (1 - t) z on [-1/2, 1/2];
    3. h(t, z) = z for |z| >= 1;
    4. dh/dz = t g + 1 > 0 throughout;
    5. the t-derivative of dh/dz, taken by central differences at fd_step,
       equals g (the family is linear in t, so this measures consistency
       of the implemented slope against the implemented profile).

    Checks 2-5 walk the (t, z) grid in blocks of whole t rows, about
    BLOCK_CELLS cells each, so memory grows with `nodes`, not with
    `nodes * t_nodes`.  The z columns (g, the core and outside nodes and
    their G(|z|) values) are computed once, each cell takes the same
    floating-point operations as `h` and `slope`, and blocks are reduced
    by np.max / np.min again (NaN propagates), so the report equals the
    whole grid's bit for bit.
    """
    if profile is None:
        profile = build_g()
    _check_t_max(t_max)
    nodes = as_int(nodes, "nodes")
    t_nodes = as_int(t_nodes, "t_nodes")
    if nodes < 3:
        raise ValueError(f"the z grid needs nodes >= 3, got {nodes}")
    if not 0 < fd_step < math.inf:
        raise ValueError(
            f"fd_step must be a finite positive number, got {fd_step}")
    import numpy as np

    zs = np.linspace(-1.5, 1.5, nodes)
    ts = np.linspace(0.0, t_max, t_nodes)[:, None]
    t_mid = ts[(ts[:, 0] >= fd_step) & (ts[:, 0] + fd_step <= 1.0)]
    if not t_mid.size:
        raise ValueError(
            f"no grid t lies in [fd_step, 1 - fd_step] for t_max = {t_max}, "
            f"t_nodes = {t_nodes}, fd_step = {fd_step}")
    checks = {}

    h0 = profile.h(0.0, zs)
    checks["initial_identity"] = _check(np.max(np.abs(h0 - zs)), 1e-12)

    def h_of(z):
        """t -> h(t, z), with G(|z|) and sign z computed once."""
        big_g, sign = profile.antiderivative(np.abs(z)), np.sign(z)
        return lambda t: z + t * big_g * sign

    core = zs[np.abs(zs) <= 0.5]
    h_core = h_of(core)
    checks["linear_core"] = _check(_blocked(
        np.max, ts, core.size,
        lambda t: np.abs(h_core(t) - (1.0 - t) * core)), 1e-12)

    outside = zs[np.abs(zs) >= 1.0]
    h_outside = h_of(outside)
    checks["outside_identity"] = _check(_blocked(
        np.max, ts, outside.size,
        lambda t: np.abs(h_outside(t) - outside)), 1e-12)

    g = profile.g(zs)

    def slope(t):
        return t * g + 1.0

    min_slope = float(_blocked(np.min, ts, nodes, slope))
    checks["slope_positive"] = CheckResult(min_slope, 0.0, min_slope > 0.0)

    checks["mixed_partial_fd"] = _check(_blocked(
        np.max, t_mid, nodes, lambda t: np.abs(
            (slope(t + fd_step) - slope(t - fd_step)) / (2.0 * fd_step)
            - g)), 1e-4)

    return HFamilyReport(checks, all(c.ok for c in checks.values()),
                         nodes, t_max, fd_step)


def _blocked(reduce, t_rows, width, cells):
    """reduce (np.max or np.min) of cells(t) over the rows of t_rows,
    evaluated BLOCK_CELLS // width rows at a time."""
    step = max(1, BLOCK_CELLS // width)
    return reduce([reduce(cells(t_rows[i:i + step]))
                   for i in range(0, len(t_rows), step)])


def _check(value, tolerance):
    value = float(value)
    return CheckResult(value, tolerance, value <= tolerance)
