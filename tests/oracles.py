"""Independent reference implementations used only by tests.

Each oracle is written with a different algorithm (and, where possible, a
different library) than the code under test, so agreement between the two
routes is evidence rather than restatement.  Nothing in src/ may import
this module.
"""

from fractions import Fraction
from itertools import product

import sympy
from sympy.matrices.normalforms import smith_normal_form as _sympy_snf


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


def canonical_rotation(letters):
    """Lexicographically least rotation of a tuple, by trying all rotations."""
    w = tuple(letters)
    return min(w[i:] + w[:i] for i in range(len(w)))


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
                classes.add(canonical_rotation(seq))
    return sorted(classes)


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

    Textbook second route for the quadrature in weinkit.scaling.
    """
    n = len(values)
    assert n >= 3 and n % 2 == 1
    acc = values[0] + values[-1]
    acc += 4 * sum(values[1:-1:2])
    acc += 2 * sum(values[2:-2:2])
    return acc * step / 3.0
