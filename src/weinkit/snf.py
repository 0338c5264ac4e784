"""Smith normal form over the integers, with verified postconditions.

All arithmetic is exact (Python big integers).  One elimination,
`_sparse_factors`, serves two entry points.  It works on sparse rows with
pivots of least |value| and least remainders (Havas-Holt-Rees), so entries
stay near the size of the pivots, and it emits the invariant factors in
chain order.  Each entry point checks its result on every call by explicit
raises that survive `python -O`, among them that the factors are positive
and form a divisibility chain.

`smith_normal_form(a)` passes identity matrices, to which the elimination
applies its row and column operations, so it returns the transforms U
(m x m) and V (n x n) and a result object is itself a certificate (a
dense 48 x 48 map of +-20 entries takes about 0.3 s).  D is built from
the factors, so it is diagonal with rank nonzero entries by construction.
Beyond the elimination, it costs:

- U*A*V = D: two products that skip zero entries, one multiply-add per
  pair of nonzeros u_ik, a_kj, then per pair (UA)_ik, v_kj;
- det U = +-1 and det V = +-1: one Bareiss elimination each.  Under a
  +-1 pivot a row changes only if it is nonzero in the pivot column, and
  only on the support of the pivot row, so a sparse unit transform costs
  about n^2 / 2 comparisons plus its fill-in, not n^3 / 3 big-integer
  multiply-and-divide steps.

`invariant_factors(a)` returns only (rank, invariant factors), which is
all that homology reads.  It builds no transforms (the dense 48 x 48 map
takes about 0.1 s), so its checks need no U or V:

- the rank equals that of one Bareiss elimination of the input (row swaps,
  column skipping), whose entries are minors of A and so stay bounded;
- the product of the factors, the rank-th determinantal divisor, divides
  that elimination's last pivot (+-det of a nonsingular rank x rank
  minor), and equals |det A| when A is square of full rank.
"""

from math import prod
from operator import index

from .serialize import Record


_NOT_ROWS = (dict, set, frozenset)  # keys in no row order: read as None


def _as_rows(a):
    """Copy a matrix (nested sequences, numpy integer or object arrays) to
    lists of Python ints, reading it and each row once: a row that is not a
    list or tuple is listed first.  An entry that is not an integer (a
    float, a string) is an error, never truncated, and so is a row that is
    not a sequence (a dict or set among them)."""
    try:
        a = a if isinstance(a, list) else list(a)
    except TypeError:
        raise ValueError(f"matrix {a!r} is not a sequence of rows") from None
    rows = [_int_row(i, row) for i, row in enumerate(a)]
    if len({len(r) for r in rows}) > 1:
        raise ValueError("ragged matrix")
    return rows


def _int_row(i, row):
    try:
        if not isinstance(row, (list, tuple)):
            row = list(None if isinstance(row, _NOT_ROWS) else row)
    except TypeError:
        raise ValueError(f"matrix row {i} = {row!r} is not a sequence") from None
    try:
        return [index(x) for x in row]
    except TypeError:
        for j, x in enumerate(row):
            try:
                index(x)
            except TypeError:
                raise ValueError(f"matrix entry ({i}, {j}) = {x!r} is not "
                                 "an integer") from None


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def block_sum(a, b, shape_a, shape_b):
    """The block matrix [[a, 0], [0, b]]; a block given as None is the zero
    matrix of its (rows, cols) shape."""
    (ra, ca), (rb, cb) = shape_a, shape_b
    top = [[0] * ca] * ra if a is None else a
    bottom = [[0] * cb] * rb if b is None else b
    return ([[*row] + [0] * cb for row in top]
            + [[0] * ca + [*row] for row in bottom])


def mat_mul(a, b):
    """Exact product; costs one multiply-add per pair of nonzeros a_ik,
    b_kj.  An a with no rows has no column count, so any b fits it."""
    if a and len(b) != len(a[0]):
        raise ValueError("shape mismatch")
    p = len(b[0]) if b else 0
    b_support = [[(j, x) for j, x in enumerate(bk) if x] for bk in b]
    out = []
    for ai in a:
        oi = [0] * p
        for aik, bk in zip(ai, b_support):
            if aik:
                for j, x in bk:
                    oi[j] += aik * x
        out.append(oi)
    return out


def _bareiss(m):
    """Bareiss fraction-free elimination on a list of rows, in place, with
    row swaps and column skipping.  Returns (rank, last pivot), where the
    last pivot is the determinant of a nonsingular rank x rank minor of
    the input, its rows and columns in their original order; (0, 1) for a
    zero matrix.

    Under a repeated pivot (pivot == prev, as for +-1 pivots) a row changes
    only on the support of the pivot row, and not at all if it is zero in
    the pivot column.  A pivot of -prev is made one by negating its row."""
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    sign = prev = 1
    k = 0
    for c in range(ncols):
        if m[k][c] == 0:
            for i in range(k + 1, nrows):
                if m[i][c] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                continue
        rk = m[k]
        p = rk[c]
        if p == -prev:
            # the entries below row k are minors without row k, so
            # negating it changes only the sign of the minor
            rk = m[k] = [-x for x in rk]
            p = prev
            sign = -sign
        k += 1
        if k == nrows:
            prev = p
            break
        if p == prev:
            # (r*p - e*x) / prev = r - e*x / prev, an exact quotient
            support = [(j, x) for j in range(c + 1, ncols) if (x := rk[j])]
            for ri in m[k:]:
                e = ri[c]
                if e:
                    for j, x in support:
                        ri[j] -= e * x // prev
        else:
            for ri in m[k:]:
                e = ri[c]
                if e:
                    for j in range(c + 1, ncols):
                        ri[j] = (ri[j] * p - e * rk[j]) // prev
                else:
                    for j in range(c + 1, ncols):
                        ri[j] = ri[j] * p // prev
            prev = p
    return k, sign * prev


def _det(m):
    """Determinant of a square list of rows; eliminates m in place."""
    rank, pivot = _bareiss(m)
    return pivot if rank == len(m) else 0


def bareiss_determinant(a):
    """Exact determinant by Bareiss fraction-free elimination."""
    m = _as_rows(a)
    if any(len(r) != len(m) for r in m):
        raise ValueError("determinant needs a square matrix")
    return _det(m)


def is_unimodular(a):
    return bareiss_determinant(a) in (1, -1)


class SNFResult(Record):
    """U*A*V = D with U, V unimodular and D a diagonal divisibility chain;
    invariant_factors are the |d_ii| >= 1, in chain order."""
    __slots__ = ("d", "u", "v", "rank", "invariant_factors")

    @property
    def torsion_factors(self):
        return tuple(f for f in self.invariant_factors if f >= 2)


def _sparse_factors(rows, u=None, v=None):
    """The invariant factors of a list of rows, in chain order.

    Rows are dicts column -> nonzero; the pivot is an entry of least
    |value|, a +-1 at once.  Row operations, then column operations that
    touch no other row, reduce its column and row to least remainders; a
    nonzero one is the next, smaller pivot, and so is one left by adding an
    offending row when the pivot does not divide the rest.  Otherwise the
    pivot is emitted, so each factor divides the next.

    Given identity matrices u (m x m) and v (n x n), every row operation
    is applied to u and every column operation to v, each emitted pivot
    row is made positive, and both are reordered, pivots first in emission
    order, so that u*rows*v is the Smith form diagonal.  An emitted row
    and column stay fixed: no remaining row has an entry in its column.
    """
    m = [r for r in ({j: x for j, x in enumerate(row) if x} for row in rows)
         if r]
    if u is not None:  # m[i] is rows[at[i]], reduced
        at = [k for k, row in enumerate(rows) if any(row)]
    factors, pivot_rows, pivot_cols = [], [], []
    while m:
        i, p = 0, None
        for k, r in enumerate(m):
            x = min(r.values(), key=abs)
            if p is None or abs(x) < abs(p):
                i, p = k, x
                if x in (1, -1):
                    break
        c = next(j for j, x in m[i].items() if x == p)
        while True:
            pr = m[i]
            p = pr[c]
            least = None
            for k, r in enumerate(m):
                e = r.get(c)
                if e is None or k == i:
                    continue
                q = (2 * e + p) // (2 * p)
                if q:
                    for j, x in pr.items():
                        y = r.get(j, 0) - q * x
                        if y:
                            r[j] = y
                        else:
                            del r[j]
                    if u is not None:
                        u[at[k]] = [x - q * y
                                    for x, y in zip(u[at[k]], u[at[i]])]
                if c in r and (least is None or abs(r[c]) < abs(m[least][c])):
                    least = k
            if least is not None:
                i = least
                continue
            if v is not None:
                steps = [(j, q) for j, x in pr.items()
                         if j != c and (q := (2 * x + p) // (2 * p))]
                for row in v:
                    if x := row[c]:
                        for j, q in steps:
                            row[j] -= q * x
            rest = {j: y for j, x in pr.items()
                    if j != c and (y := x - (2 * x + p) // (2 * p) * p)}
            m[i] = pr = {c: p, **rest}
            if rest:
                c = min(rest, key=lambda j: abs(rest[j]))
                continue
            if p not in (1, -1):
                k = next((k for k, r in enumerate(m) if k != i
                          and any(x % p for x in r.values())), None)
                if k is not None:
                    pr.update(m[k])
                    if u is not None:
                        u[at[i]] = [x + y for x, y in zip(u[at[i]], u[at[k]])]
                    continue
            factors.append(abs(p))
            if u is not None:
                if p < 0:
                    u[at[i]] = [-x for x in u[at[i]]]
                pivot_rows.append(at[i])
                pivot_cols.append(c)
                at = [a for a, r in zip(at, m) if r and r is not pr]
            m = [r for r in m if r and r is not pr]
            break
    if u is not None:
        u[:] = [u[k] for k in _pivots_first(pivot_rows, len(u))]
        cols = _pivots_first(pivot_cols, len(v))
        v[:] = [[row[j] for j in cols] for row in v]
    return tuple(factors)


def _pivots_first(pivots, n):
    """The indices in pivots, then the rest of range(n) in order."""
    done = set(pivots)
    return pivots + [k for k in range(n) if k not in done]


def _check_chain(factors):
    """Raise unless the factors are positive and each divides the next."""
    if any(f <= 0 for f in factors):
        raise AssertionError("SNF postcondition failed: nonpositive factor")
    if any(g % f for f, g in zip(factors, factors[1:])):
        raise AssertionError("SNF postcondition failed: divisibility chain")


def smith_normal_form(a):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns SNFResult(d, u, v, rank, invariant_factors) with u*a*v = d,
    checked on every call together with the chain and det u, det v = +-1.
    Total function: any shape, including empty, is accepted.
    """
    rows = _as_rows(a)
    u = identity_matrix(len(rows))
    # a numpy array of zero rows still has a column count
    v = identity_matrix(len(rows[0]) if rows else getattr(a, "shape", (0,))[-1])
    factors = _sparse_factors(rows, u, v)
    d = [[0] * len(v) for _ in rows]
    for k, f in enumerate(factors):
        d[k][k] = f

    # postconditions, every call; d is diagonal by construction, so
    # u*a*v = d also checks the rank
    _check_chain(factors)
    if mat_mul(mat_mul(u, rows), v) != d:
        raise AssertionError("SNF postcondition failed: U*A*V != D")
    if (_det([r[:] for r in u]) not in (1, -1)
            or _det([r[:] for r in v]) not in (1, -1)):
        raise AssertionError("SNF postcondition failed: transform not unimodular")
    return SNFResult(d, u, v, len(factors), factors)


def invariant_factors(a):
    """(rank, invariant factors) of an integer matrix: the nonzero diagonal
    of its Smith form, by `_sparse_factors` given no transforms.

    Checked on every call without U or V: the factors are positive and
    form a divisibility chain; the rank equals that of an independent
    Bareiss elimination of the input; and the product of the factors (the
    rank-th determinantal divisor) divides that elimination's last pivot,
    a rank x rank minor, and equals |det a| when a is square of full rank.
    Total function: any shape, including empty.
    """
    rows = _as_rows(a)
    factors = _sparse_factors(rows)
    _check_chain(factors)
    rank = len(factors)

    minor_rank, minor = _bareiss(rows)
    if minor_rank != rank:
        raise AssertionError(
            "SNF postcondition failed: rank differs from Bareiss elimination")
    product = prod(factors)
    if minor % product:
        raise AssertionError("SNF postcondition failed: product of factors "
                             "does not divide a rank x rank minor")
    if rows and len(rows) == rank == len(rows[0]) and abs(minor) != product:
        raise AssertionError(
            "SNF postcondition failed: product of factors != |det|")
    return rank, factors
