"""Smith normal form over the integers, with verified postconditions.

All arithmetic is exact (Python big integers).  Two entry points, each
with its own elimination, check their result on every call by explicit
raises that survive `python -O`, among them that the factors are positive
and form a divisibility chain.

`smith_normal_form(a)` reduces a dense copy of the input with 2x2
extended-gcd transforms (`_diagonalize`, whose pivots the tests pin; its
entries can grow on dense input with large torsion) and builds the
transforms U (m x m) and V (n x n), so a result object is itself a
certificate.  Beyond the elimination, it costs:

- U*A*V = D: two products that skip zero entries, one multiply-add per
  pair of nonzeros u_ik, a_kj, then per pair (UA)_ik, v_kj;
- det U = +-1 and det V = +-1: one Bareiss elimination each.  Under a
  +-1 pivot a row changes only if it is nonzero in the pivot column, and
  only on the support of the pivot row, so a sparse unit transform costs
  about n^2 / 2 comparisons plus its fill-in, not n^3 / 3 big-integer
  multiply-and-divide steps;
- zero off-diagonal entries and the rank: one pass over D.

`invariant_factors(a)` returns only (rank, invariant factors), which is
all that homology reads.  `_sparse_factors` eliminates on sparse rows
with pivots of least |value| and least remainders (Havas-Holt-Rees), so
entries stay near the size of the pivots (a dense 48 x 48 map of +-20
entries takes about 0.1 s).  Its checks need no U or V:

- the rank equals that of one Bareiss elimination of the input (row swaps,
  column skipping), whose entries are minors of A and so stay bounded;
- the product of the factors, the rank-th determinantal divisor, divides
  that elimination's last pivot (+-det of a nonsingular rank x rank
  minor), and equals |det A| when A is square of full rank.
"""

from math import prod
from operator import index

from .serialize import Record


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


def _diagonalize(m, u, v):
    """Reduce the list of rows m, in place, to its Smith form diagonal,
    applying every row operation to u and every column operation to v.
    Returns the rank.

    Entries are cleared with 2x2 extended-gcd transforms (determinant 1),
    which reach gcd(pivot, entry) in one step and avoid the coefficient
    blow-up of repeated subtract-and-swap rounds.
    """
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    row_mats = (m, u)
    col_mats = (m, v)

    def combine_rows(s, i):
        """Unimodular transform making m[s][s] = gcd, m[i][s] = 0."""
        p, e = m[s][s], m[i][s]
        q, r = divmod(e, p)
        if r == 0:
            for mat in row_mats:
                ri = mat[i]
                for t, x in enumerate(mat[s]):
                    if x:
                        ri[t] -= q * x
            return
        g, x, y = _xgcd(p, e)
        pa, eb = p // g, e // g
        for mat in row_mats:
            rs, ri = mat[s], mat[i]
            for t in range(len(rs)):
                a_, b_ = rs[t], ri[t]
                rs[t] = x * a_ + y * b_
                ri[t] = pa * b_ - eb * a_

    def combine_cols(s, j):
        p, e = m[s][s], m[s][j]
        q, r = divmod(e, p)
        if r == 0:
            for mat in col_mats:
                for row in mat:
                    if row[s]:
                        row[j] -= q * row[s]
            return
        g, x, y = _xgcd(p, e)
        pa, eb = p // g, e // g
        for mat in col_mats:
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
            for mat in row_mats:
                mat[s], mat[i0] = mat[i0], mat[s]
        if j0 != s:
            for mat in col_mats:
                for row in mat:
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
                for mat in row_mats:
                    mat[s] = [x + y for x, y in zip(mat[s], mat[offender])]
                continue  # redo this pivot with the enlarged row

        if p < 0:
            for mat in row_mats:
                mat[s] = [-x for x in mat[s]]
        s += 1
    return s


def _sparse_factors(rows):
    """The invariant factors of a list of rows, in chain order.

    Rows are dicts column -> nonzero; the pivot is an entry of least
    |value|, a +-1 at once.  Row operations, then column operations that
    touch no other row, reduce its column and row to least remainders; a
    nonzero one is the next, smaller pivot, and so is one left by adding an
    offending row when the pivot does not divide the rest.  Otherwise the
    pivot is emitted, so each factor divides the next.
    """
    m = [r for r in ({j: x for j, x in enumerate(row) if x} for row in rows)
         if r]
    factors = []
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
                if c in r and (least is None or abs(r[c]) < abs(m[least][c])):
                    least = k
            if least is not None:
                i = least
                continue
            rest = {j: y for j, x in pr.items()
                    if j != c and (y := x - (2 * x + p) // (2 * p) * p)}
            m[i] = pr = {c: p, **rest}
            if rest:
                c = min(rest, key=lambda j: abs(rest[j]))
                continue
            if p not in (1, -1):
                offender = next((r for r in m if r is not pr
                                 and any(x % p for x in r.values())), None)
                if offender is not None:
                    pr.update(offender)
                    continue
            factors.append(abs(p))
            m = [r for r in m if r and r is not pr]
            break
    return tuple(factors)


def _check_chain(factors):
    """Raise unless the factors are positive and each divides the next."""
    if any(f <= 0 for f in factors):
        raise AssertionError("SNF postcondition failed: nonpositive factor")
    if any(g % f for f, g in zip(factors, factors[1:])):
        raise AssertionError("SNF postcondition failed: divisibility chain")


def _diagonal_factors(m, rank):
    """The factors m[i][i], i < rank, once m is checked to be diagonal with
    exactly `rank` nonzero entries, all positive, in a divisibility chain."""
    ncols = len(m[0]) if m else 0
    factors = tuple(m[i][i] for i in range(rank))
    _check_chain(factors)
    for i, row in enumerate(m):
        if any(row[:i]) or any(row[i + 1:]):
            raise AssertionError("SNF postcondition failed: off-diagonal entry")
        if rank <= i < ncols and row[i] != 0:
            raise AssertionError("SNF postcondition failed: rank miscount")
    return factors


def smith_normal_form(a):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns SNFResult(d, u, v, rank, invariant_factors) with u*a*v = d,
    checked on every call together with det u, det v = +-1.
    Total function: any shape, including empty, is accepted.
    """
    rows = _as_rows(a)
    m = [r[:] for r in rows]
    u = identity_matrix(len(m))
    # a numpy array of zero rows still has a column count
    v = identity_matrix(len(m[0]) if m else getattr(a, "shape", (0,))[-1])
    rank = _diagonalize(m, u, v)

    # postconditions, every call
    if mat_mul(mat_mul(u, rows), v) != m:
        raise AssertionError("SNF postcondition failed: U*A*V != D")
    if (_det([r[:] for r in u]) not in (1, -1)
            or _det([r[:] for r in v]) not in (1, -1)):
        raise AssertionError("SNF postcondition failed: transform not unimodular")
    factors = _diagonal_factors(m, rank)
    return SNFResult(m, u, v, rank, factors)


def invariant_factors(a):
    """(rank, invariant factors) of an integer matrix: the nonzero diagonal
    of its Smith form, by `_sparse_factors`, which builds no transforms.

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
