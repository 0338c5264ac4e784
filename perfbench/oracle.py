"""Answers computed apart from weinkit.

Nothing here imports weinkit.  Each answer is known by construction (a
chain complex built from a standard form by unimodular changes of basis, a
torsion list built from known primes) or computed by a different method
than the program uses (invariant factors by gcd/lcm exchange instead of
factoring, word counts by a Burnside sum instead of enumeration).
"""

from fractions import Fraction
from math import gcd, lcm


# -- integers --------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin; exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng, bits):
    """A prime with exactly `bits` bits."""
    while True:
        x = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(x):
            return x


def invariant_chain(factors):
    """d_1 | d_2 | ... with the same group as the cyclic orders `factors`.

    Pairwise (a, b) -> (gcd, lcm) exchange; Z/a + Z/b = Z/gcd + Z/lcm, so
    the group never changes, and after pass i the entry i divides every
    later one.  No factoring.
    """
    chain = [int(f) for f in factors if int(f) != 1]
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            a, b = chain[i], chain[j]
            chain[i], chain[j] = gcd(a, b), lcm(a, b)
    return tuple(f for f in chain if f != 1)


def graded_parts(groups):
    """Canonical GradedGroup parts from {degree: (rank, factors)}."""
    parts = []
    for deg, (rank, factors) in groups.items():
        chain = invariant_chain(factors)
        if rank or chain:
            parts.append((int(deg), int(rank), chain))
    return tuple(sorted(parts))


# -- matrices --------------------------------------------------------------

def mat_mul(a, b):
    inner = len(b)
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * cols
        for k in range(inner):
            x = row[k]
            if x:
                bk = b[k]
                for j in range(cols):
                    acc[j] += x * bk[j]
        out.append(acc)
    return out


def unimodular_pair(rng, n, steps, coeffs):
    """(P, P^-1) for P a product of `steps` elementary row operations
    row_i += c * row_j with c drawn from `coeffs`, after a random signed
    permutation."""
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    p = [[signs[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    # the inverse of a signed permutation is its transpose
    q = [[p[j][i] for j in range(n)] for i in range(n)]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice(coeffs)
        # P <- E P with E = I + c e_ij;  P^-1 <- P^-1 E^-1 = P^-1 (I - c e_ij)
        pi, pj = p[i], p[j]
        for t in range(n):
            pi[t] += c * pj[t]
        for row in q:
            row[j] -= c * row[i]
    return p, q


def factor_chain(rng, length, unit_share):
    """A divisibility chain of `length` invariant factors, most of them 1
    when unit_share is high."""
    out = []
    current = 1
    for _ in range(length):
        if rng.random() > unit_share:
            current *= rng.choice((2, 2, 3, 5, 6))
        out.append(current)
    return out


def standard_complex(rng, betti, ranks, unit_share):
    """A chain complex in standard form, then conjugated.

    betti: {k: b_k}; ranks: {k: r_k = rank d_k} for k >= 1.  In degree k
    the basis is [images of d_{k+1} (r_{k+1}) | homology (b_k) | mapped by
    d_k (r_k)], and d_k sends the i-th mapped generator to f_i times the
    i-th image generator of degree k - 1.  Returns (dims, standard maps,
    invariant-factor chains per k, homology parts).
    """
    degrees = sorted(set(betti) | set(ranks) | {k - 1 for k in ranks})
    dims = {k: ranks.get(k + 1, 0) + betti.get(k, 0) + ranks.get(k, 0)
            for k in degrees}
    factors = {k: factor_chain(rng, r, unit_share) for k, r in ranks.items()}
    maps = {}
    for k, r in ranks.items():
        if r == 0:
            continue
        rows, cols = dims[k - 1], dims[k]
        d = [[0] * cols for _ in range(rows)]
        first_mapped = ranks.get(k + 1, 0) + betti.get(k, 0)
        for i, f in enumerate(factors[k]):
            d[i][first_mapped + i] = f
        maps[k] = d
    homology = {}
    for k in degrees:
        torsion = [f for f in factors.get(k + 1, ()) if f >= 2]
        homology[k] = (betti.get(k, 0), torsion)
    return dims, maps, factors, graded_parts(homology)


def conjugate(rng, dims, maps, steps_per_dim, coeffs):
    """d'_k = P_{k-1} d_k P_k^-1 for random unimodular P_k per degree, so
    d'_{k-1} d'_k = 0 and each d'_k keeps its invariant factors."""
    pairs = {k: unimodular_pair(rng, n, steps_per_dim * n, coeffs)
             for k, n in dims.items() if n}
    return {k: mat_mul(mat_mul(pairs[k - 1][0], d), pairs[k][1])
            for k, d in maps.items()}


def cohomology_parts(homology_parts):
    """Universal coefficients: H^k has rank b_k and the torsion of H_{k-1}."""
    ranks = {deg: rank for deg, rank, _ in homology_parts}
    torsion = {deg: chain for deg, _, chain in homology_parts}
    degrees = set(ranks) | {d + 1 for d in ranks}
    return graded_parts({k: (ranks.get(k, 0), torsion.get(k - 1, ()))
                         for k in degrees})


# -- cyclic words ----------------------------------------------------------

def _totient(n):
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _scaled(letters, bound):
    """Integer weights [(weight, degree)] and the largest total weight
    below `bound`, with actions scaled by their common denominator."""
    bound = Fraction(bound)
    den = lcm(*(Fraction(a).denominator for _, a in letters.values()),
              bound.denominator)
    weights = [(int(Fraction(a) * den), deg) for deg, a in letters.values()]
    top = int(bound * den)
    if bound * den == top:
        top -= 1  # strict: total action < bound
    return weights, top, den


def _necklaces_by_weight(weights, top):
    """Yield {degree: count} for each total weight 1..top, without listing
    words.

    A cyclic word of weight n is a necklace of n cells cut into one block
    per letter.  Burnside over the rotations Z/n counts the classes:
    N(n) = 1/n sum_{d | n} phi(n/d) X(d), where X(d) sums, over linear
    words of weight d, the weight of the first letter (the cell 0 can sit
    anywhere in that block).  The degree rides along as a polynomial
    variable, so a word repeated n/d times has n/d times its degree.
    """
    lin = [{0: 1}]  # linear words by weight, then degree
    marked = [{}]  # X(d) by degree
    for n in range(1, top + 1):
        lin_n, marked_n = {}, {}
        for w, deg in weights:
            if w <= n:
                for d, c in lin[n - w].items():
                    lin_n[d + deg] = lin_n.get(d + deg, 0) + c
                    marked_n[d + deg] = marked_n.get(d + deg, 0) + w * c
        lin.append(lin_n)
        marked.append(marked_n)
        acc = {}
        for d in range(1, n + 1):
            if n % d:
                continue
            reps, phi = n // d, _totient(n // d)
            for deg, c in marked[d].items():
                acc[deg * reps] = acc.get(deg * reps, 0) + phi * c
        out = {}
        for deg, c in acc.items():
            if c % n:
                raise ArithmeticError("Burnside sum not divisible")
            if c:
                out[deg] = c // n
        yield out


def necklace_counts(letters, bound):
    """{degree: number of cyclic words} over letters {id: (degree, action)}
    with total action < bound, one per rotation class."""
    if not letters:
        return {}
    weights, top, _ = _scaled(letters, bound)
    total = {}
    for by_degree in _necklaces_by_weight(weights, top):
        for deg, c in by_degree.items():
            total[deg] = total.get(deg, 0) + c
    return total


def bound_for_count(letters, target, limit):
    """Smallest bound (a multiple of the actions' common step) below
    `limit` whose word count reaches `target`."""
    weights, top, den = _scaled(letters, limit)
    seen = 0
    for n, by_degree in enumerate(_necklaces_by_weight(weights, top), 1):
        seen += sum(by_degree.values())
        if seen >= target:
            return Fraction(n + 1, den)
    raise ValueError(f"fewer than {target} words below {limit}")


def least_rotation(seq):
    seq = tuple(seq)
    return min(seq[i:] + seq[:i] for i in range(len(seq)))




# -- small checks on reports ------------------------------------------------

def stabilized_ok(old, new, big_n, crit, eps):
    """Problems with a stabilized spectrum.

    old: [(id, degree, action)]; new: [(id, degree, action)] as output.
    Old chords keep their action and shift by 2N; each non-positive old
    chord is one site giving 2N chords per critical index, each of degree
    1 + ind and action below eps; every degree ends up positive.
    """
    old_by_id = {cid: (deg, act) for cid, deg, act in old}
    sites = sum(1 for _, deg, _ in old if deg <= 0)
    want_new = sorted([1 + ind for ind in crit for _ in range(2 * big_n)]
                      * sites)
    seen, got_new = set(), []
    for cid, deg, act in new:
        if cid in seen:
            return f"duplicate id {cid}"
        seen.add(cid)
        if deg <= 0:
            return f"chord {cid} has degree {deg} <= 0"
        if cid in old_by_id:
            odeg, oact = old_by_id[cid]
            if deg != odeg + 2 * big_n or act != oact:
                return f"old chord {cid} not shifted by 2N"
        else:
            if not 0 < act < eps:
                return f"zig-zag chord {cid} action {act} outside (0, eps)"
            got_new.append(deg)
    if len(seen & set(old_by_id)) != len(old_by_id):
        return "old chords lost"
    if sorted(got_new) != want_new:
        return "zig-zag degrees are not 1 + ind, 2N per index and site"
    return None


def positive_certificate(stages):
    """Problems with a certificate given as [(scale, bound, [(degree,
    action, contractible)])]: scales weakly decrease, bounds strictly
    increase, contractible orbits have positive degree and action below
    the bound."""
    for i, (scale, bound, orbits) in enumerate(stages):
        if i and scale > stages[i - 1][0]:
            return f"stage {i + 1}: scale increased"
        if i and bound <= stages[i - 1][1]:
            return f"stage {i + 1}: bound not increasing"
        for deg, act, contractible in orbits:
            if contractible and deg <= 0:
                return f"stage {i + 1}: orbit of degree {deg}"
            if not 0 < act < bound:
                return f"stage {i + 1}: action {act} outside (0, bound)"
    return None
