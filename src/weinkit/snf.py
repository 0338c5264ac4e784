"""Smith normal form over the integers, with verified postconditions.

All arithmetic is exact (Python big integers).  ``smith_normal_form``
checks every postcondition on every call, so a result object is itself a
certificate.  For an m x n input A with transforms U (m x m), V (n x n):

- U*A*V = D costs two products that skip zero entries: one multiply-add
  per pair of nonzeros u_ik, a_kj, then per pair (UA)_ik, v_kj, plus one
  pass over each matrix;
- det U = +-1 and det V = +-1 cost one Bareiss elimination each.  Under a
  +-1 pivot a row changes only if it is nonzero in the pivot column, and
  only on the support of the pivot row, so a sparse unit transform costs
  about n^2 / 2 comparisons plus its fill-in, not n^3 / 3 big-integer
  multiply-and-divide steps;
- positive factors, the divisibility chain, zero off-diagonal entries and
  the rank cost one pass over D.

The elimination touches only the nonzeros of the pivot row (or column) on
a quotient step, and skips the "pivot divides the rest" scan under a +-1
pivot, which divides everything.
"""

from dataclasses import dataclass
from operator import index


def _as_rows(a):
    """Copy a matrix (nested sequences, numpy integer or object arrays) to
    lists of Python ints.  An entry that is not an integer (a float, a
    string) is an error, never truncated."""
    try:
        rows = [[index(x) for x in row] for row in a]
    except TypeError:
        for i, row in enumerate(a):
            for j, x in enumerate(row):
                try:
                    index(x)
                except TypeError:
                    raise ValueError(f"matrix entry ({i}, {j}) = {x!r} is "
                                     "not an integer") from None
        raise
    if len({len(r) for r in rows}) > 1:
        raise ValueError("ragged matrix")
    return rows


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
    b_kj."""
    inner = len(a[0]) if a else 0
    if len(b) != inner:
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


def _det(m):
    """Bareiss fraction-free elimination on a square list of rows, in
    place.  Under a repeated pivot (pivot == prev, as for +-1 pivots) a
    row changes only on the support of the pivot row, and not at all if
    it is zero in the pivot column.  A pivot of -prev is made one by
    negating its row."""
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        rk = m[k]
        p = rk[k]
        if p == -prev:
            # the entries below row k are minors without row k, so
            # negating it changes only the sign of det
            rk = m[k] = [-x for x in rk]
            p = prev
            sign = -sign
        support = [j for j in range(k + 1, n) if rk[j]]
        for ri in m[k + 1:]:
            e = ri[k]
            if p == prev:
                # (r*p - e*c) / prev = r - e*c / prev, an exact quotient
                if e:
                    for j in support:
                        ri[j] -= e * rk[j] // prev
            elif e:
                for j in range(k + 1, n):
                    ri[j] = (ri[j] * p - e * rk[j]) // prev
            else:
                for j in range(k + 1, n):
                    ri[j] = ri[j] * p // prev
        prev = p
    return sign * m[n - 1][n - 1] if n else 1


def bareiss_determinant(a):
    """Exact determinant by Bareiss fraction-free elimination."""
    m = _as_rows(a)
    if any(len(r) != len(m) for r in m):
        raise ValueError("determinant needs a square matrix")
    return _det(m)


def is_unimodular(a):
    return bareiss_determinant(a) in (1, -1)


@dataclass(frozen=True)
class SNFResult:
    """U*A*V = D with U, V unimodular and D a diagonal divisibility chain."""
    d: list
    u: list
    v: list
    rank: int
    invariant_factors: tuple  # the |d_ii| >= 1, in chain order

    @property
    def torsion_factors(self):
        return tuple(f for f in self.invariant_factors if f >= 2)


def _pivot_position(m, s, nrows):
    """Smallest nonzero |entry| in the block starting at (s, s), else None."""
    best = None
    best_val = 0
    for i in range(s, nrows):
        tail = m[i][s:]
        if not any(tail):
            continue
        val = min(map(abs, filter(None, tail)))
        if best is None or val < best_val:
            j = min(tail.index(x) for x in (val, -val) if x in tail)
            best, best_val = (i, s + j), val
            if val == 1:
                return best
    return best


def _xgcd(a, b):
    """(g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def smith_normal_form(a):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Entries are cleared with 2x2 extended-gcd transforms (determinant 1),
    which reach gcd(pivot, entry) in one step and avoid the coefficient
    blow-up of repeated subtract-and-swap rounds.

    Returns SNFResult(d, u, v, rank, invariant_factors) with u*a*v = d.
    Total function: any shape, including empty, is accepted.
    """
    rows = _as_rows(a)
    m = [r[:] for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    u = identity_matrix(nrows)
    v = identity_matrix(ncols)

    def combine_rows(s, i):
        """Unimodular transform making m[s][s] = gcd, m[i][s] = 0."""
        p, e = m[s][s], m[i][s]
        q, r = divmod(e, p)
        if r == 0:
            for mat in (m, u):
                ri = mat[i]
                for t, x in enumerate(mat[s]):
                    if x:
                        ri[t] -= q * x
            return
        g, x, y = _xgcd(p, e)
        pa, eb = p // g, e // g
        for mat, w in ((m, ncols), (u, nrows)):
            rs, ri = mat[s], mat[i]
            for t in range(w):
                a_, b_ = rs[t], ri[t]
                rs[t] = x * a_ + y * b_
                ri[t] = pa * b_ - eb * a_

    def combine_cols(s, j):
        p, e = m[s][s], m[s][j]
        q, r = divmod(e, p)
        if r == 0:
            for mat in (m, v):
                for row in mat:
                    if row[s]:
                        row[j] -= q * row[s]
            return
        g, x, y = _xgcd(p, e)
        pa, eb = p // g, e // g
        for mat in (m, v):
            for row in mat:
                a_, b_ = row[s], row[j]
                row[s] = x * a_ + y * b_
                row[j] = pa * b_ - eb * a_

    s = 0
    limit = min(nrows, ncols)
    while s < limit:
        pos = _pivot_position(m, s, nrows)
        if pos is None:
            break
        i0, j0 = pos
        if i0 != s:
            m[s], m[i0] = m[i0], m[s]
            u[s], u[i0] = u[i0], u[s]
        if j0 != s:
            for row in m:
                row[s], row[j0] = row[j0], row[s]
            for row in v:
                row[s], row[j0] = row[j0], row[s]

        # column ops can dirty the pivot column and vice versa; loop until
        # both are clear (pivot |value| only ever shrinks, so this halts).
        # A step on row i changes only rows s and i, so the rows to clear
        # can be listed up front; likewise for columns.
        while True:
            for i in [i for i in range(s + 1, nrows) if m[i][s]]:
                combine_rows(s, i)
            for j in [j for j in range(s + 1, ncols) if m[s][j]]:
                combine_cols(s, j)
            if not any(row[s] for row in m[s + 1:]):
                break

        # pivot must divide every remaining entry; absorb a witness row if
        # not (a +-1 pivot divides everything)
        p = m[s][s]
        if p not in (1, -1):
            offender = next((i for i in range(s + 1, nrows)
                             if any(x % p for x in m[i][s + 1:] if x)), None)
            if offender is not None:
                m[s] = [x + y for x, y in zip(m[s], m[offender])]
                u[s] = [x + y for x, y in zip(u[s], u[offender])]
                continue  # redo this pivot with the enlarged row

        if p < 0:
            m[s] = [-x for x in m[s]]
            u[s] = [-x for x in u[s]]
        s += 1

    rank = s
    factors = tuple(m[i][i] for i in range(rank))

    # postconditions, every call
    if mat_mul(mat_mul(u, rows), v) != m:
        raise AssertionError("SNF postcondition failed: U*A*V != D")
    if (_det([r[:] for r in u]) not in (1, -1)
            or _det([r[:] for r in v]) not in (1, -1)):
        raise AssertionError("SNF postcondition failed: transform not unimodular")
    for i in range(rank):
        if factors[i] <= 0:
            raise AssertionError("SNF postcondition failed: nonpositive factor")
        if i + 1 < rank and factors[i + 1] % factors[i] != 0:
            raise AssertionError("SNF postcondition failed: divisibility chain")
    for i, row in enumerate(m):
        if any(row[:i]) or any(row[i + 1:]):
            raise AssertionError("SNF postcondition failed: off-diagonal entry")
        if rank <= i < ncols and row[i] != 0:
            raise AssertionError("SNF postcondition failed: rank miscount")

    return SNFResult(d=m, u=u, v=v, rank=rank, invariant_factors=factors)
