"""Independent reference implementations used only by tests.

Each oracle is written with a different algorithm (and, where possible, a
different library) than the code under test, so agreement between the two
routes is evidence rather than restatement.  Nothing in src/ may import
this module, and it imports nothing from weinkit.  The stdlib generators
of known answers and the Burnside count of cyclic words come from the
benchmark's perfbench/oracle.py, so both check weinkit against one copy.
"""

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import sympy
from sympy import ZZ
from sympy.matrices.normalforms import smith_normal_form as _sympy_snf
from sympy.polys.matrices import DomainMatrix

# appended, so it shadows nothing; some names are only for the tests
sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
from oracle import (  # noqa: E402, F401
    conjugate,
    factor_chain,
    graded_parts,
    least_rotation,
    mat_mul,
    necklace_counts,
    standard_complex,
    unimodular_pair,
)


def rational_rank(rows):
    """Rank of an integer matrix by Gaussian elimination over Fraction.

    Row-reduction route, no SNF involved.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    col = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, nrows):
            if m[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        m[rank] = [x / pv for x in m[rank]]
        for i in range(nrows):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def sympy_invariant_factors(rows):
    """Nontrivial invariant factors (>= 2) of an integer matrix via sympy.

    Second route for torsion: sympy's own Smith normal form over ZZ.
    """
    if not rows or not rows[0]:
        return []
    d = _sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
    factors = []
    for i in range(min(d.rows, d.cols)):
        v = abs(int(d[i, i]))
        if v >= 2:
            factors.append(v)
    return sorted(factors)


def modular_invariant_factors(rows):
    """Nontrivial invariant factors (>= 2) of a nonsingular square integer
    matrix, by elimination modulo D = |det| (sympy's DomainMatrix).

    Third route for torsion, for sizes where sympy's Smith form is slow:
    the column lattice L of A contains D Z^n, so row and column operations
    may reduce entries modulo D.  A diagonal d_k leaves Z/gcd(d_k, D), and
    gcd/lcm exchanges turn those orders into a chain.
    """
    n = len(rows)
    det = DomainMatrix([[ZZ(x) for x in r] for r in rows], (n, n), ZZ).det()
    big = abs(int(det))
    if big == 0:
        raise ValueError("singular matrix")
    m = [[x % big for x in r] for r in rows]
    orders = []
    for k in range(n):
        pos = next(((i, j) for i in range(k, n) for j in range(k, n)
                    if m[i][j]), None)
        if pos is None:
            orders += [big] * (n - k)
            break
        m[k], m[pos[0]] = m[pos[0]], m[k]
        for r in m:
            r[k], r[pos[1]] = r[pos[1]], r[k]
        # a divisible entry is cleared by subtraction, never by a gcd step
        # that could move it into the pivot, so the pivot only shrinks
        while True:
            for i in range(k + 1, n):
                p, e = m[k][k], m[i][k]
                x, y, g = (1, 0, p) if e % p == 0 else ZZ.gcdex(p, e)
                pairs = list(zip(m[k], m[i]))
                m[k] = [(x * a + y * b) % big for a, b in pairs]
                m[i] = [(p // g * b - e // g * a) % big for a, b in pairs]
            for j in range(k + 1, n):
                p, e = m[k][k], m[k][j]
                x, y, g = (1, 0, p) if e % p == 0 else ZZ.gcdex(p, e)
                for r in m:
                    r[k], r[j] = ((x * r[k] + y * r[j]) % big,
                                  (p // g * r[j] - e // g * r[k]) % big)
            if not any(m[i][k] for i in range(k + 1, n)):
                break
        orders.append(math.gcd(m[k][k], big))
    for i in range(n):
        for j in range(i + 1, n):
            g = math.gcd(orders[i], orders[j])
            orders[i], orders[j] = g, orders[i] * orders[j] // g
    return [d for d in orders if d >= 2]


def homology_ranks_by_row_reduction(dims, boundaries):
    """Betti numbers rank H_k = n_k - r(d_k) - r(d_{k+1}) via rational_rank.

    dims: {k: n_k}; boundaries: {k: rows} with d_k mapping degree k to k-1.
    """
    ranks = {}
    degs = sorted(dims)
    for k in degs:
        rk = rational_rank(boundaries[k]) if k in boundaries else 0
        rk1 = rational_rank(boundaries[k + 1]) if k + 1 in boundaries else 0
        ranks[k] = dims[k] - rk - rk1
    return ranks


def conjugated_matrix(rng, rows, cols, rank, unit_share, steps, coeffs=(-1, 1)):
    """(P D Q^-1, factors): D is rows x cols with a divisibility chain of
    `rank` factors on its diagonal, P and Q random unimodular with
    `steps` elementary operations per dimension.  The invariant factors
    of the result are those of D by construction."""
    factors = factor_chain(rng, rank, unit_share)
    d = [[factors[i] if i == j < rank else 0 for j in range(cols)]
         for i in range(rows)]
    p, _ = unimodular_pair(rng, rows, steps * rows, coeffs)
    _, q_inv = unimodular_pair(rng, cols, steps * cols, coeffs)
    return mat_mul(mat_mul(p, d), q_inv), factors


def conjugated_complex(rng, betti, ranks, unit_share, steps, coeffs=(-1, 1)):
    """(dims, boundaries, canonical homology parts) of oracle.standard_complex
    for betti {k: b_k} and ranks {k: rank d_k}, conjugated by
    oracle.conjugate."""
    dims, maps, _, parts = standard_complex(rng, betti, ranks, unit_share)
    return dims, conjugate(rng, dims, maps, steps, coeffs), parts


def brute_force_words(actions, bound):
    """All cyclic word classes with total action < bound, each class once.

    actions: {letter: Fraction action > 0}.  Enumerates every raw sequence
    with itertools.product (length capped by min action), canonicalizes by
    trying all rotations, dedupes with a set.  Returns the sorted list of
    canonical letter tuples.
    """
    letters = sorted(actions)
    if not letters:
        return []
    amin = min(actions.values())
    assert amin > 0
    maxlen = int(Fraction(bound) / amin)  # length * amin < bound
    classes = set()
    for length in range(1, maxlen + 1):
        for seq in product(letters, repeat=length):
            if sum(actions[c] for c in seq) < bound:
                classes.add(least_rotation(seq))
    return sorted(classes)


def brute_force_linear_words(actions, bound):
    """All words, the empty one included, with total action < bound.

    actions: {letter: Fraction action > 0}.  Enumerates every sequence of
    each length up to bound / min action with itertools.product and keeps
    those whose action sums below the bound.  Returns the letter tuples
    sorted by (length, letters).
    """
    bound = Fraction(bound)
    if bound <= 0:
        return []
    letters = sorted(actions)
    maxlen = int(bound / min(actions.values())) if letters else 0
    words = [seq for length in range(maxlen + 1)
             for seq in product(letters, repeat=length)
             if sum(actions[c] for c in seq) < bound]
    return sorted(words, key=lambda w: (len(w), w))


def exp_series(x, terms=60):
    """exp(x) for Fraction x as a Fraction partial sum (independent of libm)."""
    x = Fraction(x)
    total = Fraction(0)
    term = Fraction(1)
    for k in range(terms):
        total += term
        term = term * x / (k + 1)
    return total


def simpson_composite(values, step):
    """Composite Simpson on an odd count of uniformly spaced samples.

    Textbook second route for the spacing-aware `_simpson` below.
    """
    n = len(values)
    assert n >= 3 and n % 2 == 1
    acc = values[0] + values[-1]
    acc += 4 * sum(values[1:-1:2])
    acc += 2 * sum(values[2:-2:2])
    return acc * step / 3.0


# The graded walks as written before GradedGroup gained at, reindex and
# first_difference: each reads one degree at a time through rank and
# torsion, and the last two walk the whole declared range.

def reindexed_parts(g, shift, sign):
    """{shift + sign*k: (rank, torsion)}, for GradedGroup.from_dict to
    canonicalize again."""
    return {shift + sign * k: (g.rank(k), g.torsion(k)) for k in g.support}


def first_difference_by_scan(a, b):
    """Least degree of either support where rank or torsion differ."""
    for k in sorted(set(a.support) | set(b.support)):
        if (a.rank(k), a.torsion(k)) != (b.rank(k), b.torsion(k)):
            return k
    return None


def semi_characteristic_dense(g, n, coeff):
    """Sum of dim H_i over every i in [0, (n-1)/2], mod 2."""
    return sum(g.dim(i, coeff) for i in range((n - 1) // 2 + 1)) % 2


def loop_gap_dense(lm, ln, hy_dims, n):
    """First degree up to the common horizon where the loop-homology gap
    beats 2 dim H^{n-k} + 2 dim H^{n-k+1}, as the witness dict, or None."""
    for k in range(min(lm.horizon, ln.horizon) + 1):
        gap = abs(lm.dim(k) - ln.dim(k))
        bound = 2 * hy_dims.get(n - k, 0) + 2 * hy_dims.get(n - k + 1, 0)
        if gap > bound:
            return {"degree": k, "gap": gap, "bound": bound}
    return None


def rank_mod2(rows):
    """Rank over F2 by Gaussian elimination on the entries mod 2 (no SNF,
    no torsion bookkeeping)."""
    m = [[x % 2 for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                m[i] = [a ^ b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def f2_homology_dims(dims, boundaries):
    """{k: dim_F2 H_k} = n_k - rank_F2 d_k - rank_F2 d_{k+1}, omitting
    degrees of dimension 0.  dims: {k: n_k}; boundaries: {k: rows of d_k}."""
    out = {}
    for k, n in dims.items():
        dim = n - sum(rank_mod2(boundaries[j]) for j in (k, k + 1)
                      if j in boundaries)
        if dim:
            out[k] = dim
    return out


# The float grid that weinkit.scaling checked the profile on before its
# exact certificate: numpy evaluates the pieces on a (t, z) grid, composite
# Simpson integrates g, and the family checks walk the grid in row blocks.

BLOCK_CELLS = 1 << 15     # (t, z) cells alive at once in grid_h_family


def _simpson(y, x):
    """Composite Simpson's rule over an odd count of nodes, in the
    spacing-aware form (Cartwright 2017).  Keep the operation order: it
    gives 5.55e-17 at 2001 nodes where the uniform form gives 0.0."""
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
class GridProfile:
    """The profile of weinkit.scaling.GProfile in floats, vectorized over
    numpy arrays, with its amplitude balanced in floats."""
    height: float
    rise_width: float
    fall_start: float
    fall_width: float
    nodes: int
    amplitude: float = field(init=False)

    def __post_init__(self):
        w_r, w_f = self.rise_width, self.fall_width
        plateau = self.fall_start - 0.5 - w_r
        object.__setattr__(self, "amplitude", (0.5 + 0.5 * w_r) / (
            0.5 * w_r + plateau + 0.5 * w_f))

    @property
    def rise_end(self):
        return 0.5 + self.rise_width

    @property
    def zero_from(self):
        return self.fall_start + self.fall_width

    def g(self, r):
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
        t = np.asarray(t, dtype=float)
        z = np.asarray(z, dtype=float)
        return z + t * self.antiderivative(np.abs(z)) * np.sign(z)

    def slope(self, t, z):
        t = np.asarray(t, dtype=float)
        z = np.asarray(z, dtype=float)
        return t * self.g(z) + 1.0

    def own_grid(self):
        return np.linspace(0.0, 1.0, self.nodes)

    def integral_residual(self):
        r = self.own_grid()
        return float(_simpson(self.g(r), r))


def _check_t_max(t_max):
    if t_max >= 1:
        raise ValueError(f"need t_max < 1, got {t_max}")
    if not t_max >= 0:
        raise ValueError(f"t_max must be nonnegative, got {t_max}")


def grid_ratio(profile, t_max=0.999, nodes=2001):
    """(max, t, z) of g/(t g + 1) on the (t, z) grid of NODES x NODES,
    read off its t = 0 row.  For finite g >= -1 and 0 <= t < 1 the rounded
    denominator fl(fl(t g) + 1) is >= 1 when g >= 0 and lies in (0, 1]
    when g < 0, so every cell rounds to at most g, the exact value of its
    t = 0 cell, and the row's first maximum is the grid's."""
    _check_t_max(t_max)
    zs = np.linspace(0.0, 1.0, nodes)
    g = profile.g(zs)
    if not (np.isfinite(g).all() and g.min() >= -1.0):
        raise ValueError(
            f"the ratio bound needs finite g >= -1, got min g = {g.min()}")
    iz = int(np.argmax(g))
    return float(g[iz]), 0.0, float(zs[iz])


def grid_h_family(profile, nodes=2001, t_max=0.999, t_nodes=201,
                  fd_step=1e-3):
    """{check: value} of the five family identities of
    weinkit.scaling.verify_h_family on the (t, z) grid, in blocks of whole
    t rows of about BLOCK_CELLS cells: the z columns are computed once,
    each cell takes the same floating-point operations as `h` and
    `slope`, and blocks are reduced by np.max / np.min again (NaN
    propagates), so the values equal h_family_whole_grid's bit for bit.
    The mixed partial is a central difference at fd_step."""
    _check_t_max(t_max)
    if nodes < 3:
        raise ValueError(f"the z grid needs nodes >= 3, got {nodes}")
    if not 0 < fd_step < math.inf:
        raise ValueError(
            f"fd_step must be a finite positive number, got {fd_step}")
    zs = np.linspace(-1.5, 1.5, nodes)
    ts = np.linspace(0.0, t_max, t_nodes)[:, None]
    t_mid = ts[(ts[:, 0] >= fd_step) & (ts[:, 0] + fd_step <= 1.0)]
    if not t_mid.size:
        raise ValueError(
            f"no grid t lies in [fd_step, 1 - fd_step] for t_max = {t_max}, "
            f"t_nodes = {t_nodes}, fd_step = {fd_step}")

    def blocked(reduce, t_rows, width, cells):
        step = max(1, BLOCK_CELLS // width)
        return float(reduce([reduce(cells(t_rows[i:i + step]))
                             for i in range(0, len(t_rows), step)]))

    def h_of(z):
        """t -> h(t, z), with G(|z|) and sign z computed once."""
        big_g, sign = profile.antiderivative(np.abs(z)), np.sign(z)
        return lambda t: z + t * big_g * sign

    out = {"initial_identity": float(
        np.max(np.abs(profile.h(0.0, zs) - zs)))}
    core = zs[np.abs(zs) <= 0.5]
    h_core = h_of(core)
    out["linear_core"] = blocked(
        np.max, ts, core.size, lambda t: np.abs(h_core(t) - (1.0 - t) * core))
    outside = zs[np.abs(zs) >= 1.0]
    h_outside = h_of(outside)
    out["outside_identity"] = blocked(
        np.max, ts, outside.size, lambda t: np.abs(h_outside(t) - outside))
    g = profile.g(zs)

    def slope(t):
        return t * g + 1.0

    out["slope_positive"] = blocked(np.min, ts, nodes, slope)
    out["mixed_partial_fd"] = blocked(np.max, t_mid, nodes, lambda t: np.abs(
        (slope(t + fd_step) - slope(t - fd_step)) / (2.0 * fd_step) - g))
    return out


def h_family_whole_grid(profile, nodes=2001, t_max=0.999, t_nodes=201,
                        fd_step=1e-3):
    """The values of grid_h_family with every check taken over the whole
    (t, z) grid at once, through the profile's own h and slope.  The
    argument checks are left out: a grid with no t in [fd_step,
    1 - fd_step] ends in numpy's zero-size reduction error."""
    zs = np.linspace(-1.5, 1.5, nodes)
    ts = np.linspace(0.0, t_max, t_nodes)[:, None]
    t_mid = ts[(ts[:, 0] >= fd_step) & (ts[:, 0] + fd_step <= 1.0)]
    core = zs[np.abs(zs) <= 0.5]
    outside = zs[np.abs(zs) >= 1.0]
    fd = (profile.slope(t_mid + fd_step, zs)
          - profile.slope(t_mid - fd_step, zs)) / (2.0 * fd_step)
    return {
        "initial_identity": float(np.max(np.abs(profile.h(0.0, zs) - zs))),
        "linear_core": float(np.max(np.abs(
            profile.h(ts, core) - (1.0 - ts) * core))),
        "outside_identity": float(np.max(np.abs(
            profile.h(ts, outside) - outside))),
        "slope_positive": float(np.min(profile.slope(ts, zs))),
        "mixed_partial_fd": float(np.max(np.abs(
            fd - profile.g(zs)[None, :]))),
    }
