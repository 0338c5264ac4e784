"""Smith normal form over the integers, with verified postconditions.

All arithmetic is exact (Python big integers).  ``smith_normal_form``
re-multiplies U*A*V and checks unimodularity and the divisibility chain on
every call, so a result object is itself a certificate.
"""

from dataclasses import dataclass


def _as_rows(a):
    """Copy input (any nested sequence / numpy object array) to lists of int."""
    rows = [[int(x) for x in row] for row in a]
    if rows:
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise ValueError("ragged matrix")
    return rows


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n = len(a)
    inner = len(a[0]) if a else 0
    if len(b) != inner:
        raise ValueError("shape mismatch")
    p = len(b[0]) if b else 0
    out = [[0] * p for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            aik = ai[k]
            if aik:
                bk = b[k]
                for j in range(p):
                    oi[j] += aik * bk[j]
    return out


def bareiss_determinant(a):
    """Exact determinant by Bareiss fraction-free elimination."""
    m = [row[:] for row in _as_rows(a)]
    n = len(m)
    if n == 0:
        return 1
    if any(len(r) != n for r in m):
        raise ValueError("determinant needs a square matrix")
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
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


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


def _pivot_position(m, s, nrows, ncols):
    """Smallest nonzero |entry| in the block starting at (s, s), else None."""
    best = None
    best_val = 0
    for i in range(s, nrows):
        row = m[i]
        for j in range(s, ncols):
            v = row[j]
            if v != 0 and (best is None or abs(v) < best_val):
                best = (i, j)
                best_val = abs(v)
                if best_val == 1:
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
    m = _as_rows(a)
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    u = identity_matrix(nrows)
    v = identity_matrix(ncols)

    def combine_rows(s, i):
        """Unimodular transform making m[s][s] = gcd, m[i][s] = 0."""
        p, e = m[s][s], m[i][s]
        q, r = divmod(e, p)
        if r == 0:
            for t in range(ncols):
                m[i][t] -= q * m[s][t]
            for t in range(nrows):
                u[i][t] -= q * u[s][t]
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
            for row in m:
                row[j] -= q * row[s]
            for row in v:
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
        pos = _pivot_position(m, s, nrows, ncols)
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
        # both are clear (pivot |value| only ever shrinks, so this halts)
        dirty = True
        while dirty:
            dirty = False
            for i in range(s + 1, nrows):
                if m[i][s] != 0:
                    combine_rows(s, i)
            for j in range(s + 1, ncols):
                if m[s][j] != 0:
                    combine_cols(s, j)
            for i in range(s + 1, nrows):
                if m[i][s] != 0:
                    dirty = True
                    break

        # pivot must divide every remaining entry; absorb a witness row if not
        offender = None
        p = m[s][s]
        for i in range(s + 1, nrows):
            for j in range(s + 1, ncols):
                if m[i][j] % p != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(ncols):
                m[s][j] += m[offender][j]
            for j in range(nrows):
                u[s][j] += u[offender][j]
            continue  # redo this pivot with the enlarged row

        if m[s][s] < 0:
            for j in range(ncols):
                m[s][j] = -m[s][j]
            for j in range(nrows):
                u[s][j] = -u[s][j]
        s += 1

    rank = s
    factors = tuple(m[i][i] for i in range(rank))

    # postconditions, every call
    if mat_mul(mat_mul(u, _as_rows(a)), v) != m:
        raise AssertionError("SNF postcondition failed: U*A*V != D")
    if not is_unimodular(u) or not is_unimodular(v):
        raise AssertionError("SNF postcondition failed: transform not unimodular")
    for i in range(rank):
        if factors[i] <= 0:
            raise AssertionError("SNF postcondition failed: nonpositive factor")
        if i + 1 < rank and factors[i + 1] % factors[i] != 0:
            raise AssertionError("SNF postcondition failed: divisibility chain")
    for i in range(nrows):
        for j in range(ncols):
            if i != j and m[i][j] != 0:
                raise AssertionError("SNF postcondition failed: off-diagonal entry")
        if i < ncols and i >= rank and m[i][i] != 0:
            raise AssertionError("SNF postcondition failed: rank miscount")

    return SNFResult(d=m, u=u, v=v, rank=rank, invariant_factors=factors)
