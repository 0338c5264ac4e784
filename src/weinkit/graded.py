"""Graded finitely generated abelian groups and chain-complex homology.

A GradedGroup stores, per degree, a free rank and the torsion invariant
factors d_1 | d_2 | ... .  GradedGroup.from_dict canonicalizes arbitrary
factor lists by gcd/lcm exchange, and the constructor refuses parts that
are not canonical, so descriptor equality is isomorphism.  No integer is
ever factored into primes.
"""

import re
from collections import Counter
from math import gcd

from .serialize import GROUP_ENTRY, INT, MATRIX, SCHEMA_VERSION, Record, SchemaError, as_int, degree_map, optional, reader
from .snf import _as_rows, block_sum, invariant_factors, mat_mul


def invariant_factor_chain(factors):
    """Canonical d_1 | d_2 | ... chain from any multiset of factors >= 2.

    Factors equal to 1 are dropped (trivial group); factors < 1 are
    rejected.  Works by gcd/lcm exchange, Z/a + Z/b = Z/gcd + Z/lcm: after
    pass i the entry i divides every later one.
    """
    chain = []
    for f in factors:
        f = as_int(f, "torsion factor")
        if f == 1:
            continue
        if f < 1:
            raise ValueError(f"torsion factor must be >= 1, got {f}")
        chain.append(f)
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            g = gcd(chain[i], chain[j])
            chain[i], chain[j] = g, chain[i] // g * chain[j]
    return tuple(f for f in chain if f != 1)


def _coprime_base(numbers):
    """Pairwise coprime integers > 1 such that every number is a product
    of their powers: split any two sharing g = gcd into b/g, g, n/g."""
    if any(n < 1 for n in numbers):
        raise ValueError(f"torsion factors must be >= 1, got {numbers}")
    base, todo = [], [n for n in numbers if n > 1]
    while todo:
        n = todo.pop()
        for i, b in enumerate(base):
            g = gcd(n, b)
            if g > 1:
                del base[i]
                todo.extend(x for x in (b // g, g, n // g) if x > 1)
                break
        else:
            base.append(n)
    return base


def _elementary_divisors(factors, base):
    """Multiset of (b, e) with b^e exactly dividing a factor, b in a
    coprime base.  Each prime p divides one b, and v_p = e * v_p(b), so
    over a shared base these multisets compare like prime-power ones."""
    out = Counter()
    for f in factors:
        for b in base:
            e = 0
            while f % b == 0:
                f //= b
                e += 1
            if e:
                out[b, e] += 1
    return out


# the body of a graded group's document: degree -> {"rank", "torsion"}
_write_groups, _read_groups, _ = degree_map(GROUP_ENTRY)


def _canonical_part(part, after):
    """Whether PART is a (degree, rank, chain) triple of GradedGroup.parts
    whose degree follows AFTER (None for the first part)."""
    if type(part) is not tuple or len(part) != 3:
        return False
    deg, rank, chain = part
    return (type(deg) is int and (after is None or deg > after)
            and type(rank) is int and rank >= 0 and type(chain) is tuple
            and all(type(f) is int and f >= 2 for f in chain)
            and all(b % a == 0 for a, b in zip(chain, chain[1:]))
            and bool(rank or chain))


class GradedGroup(Record):
    """Canonical descriptor: sorted ((degree, rank, factors), ...)."""
    __slots__ = ("parts",)

    def __init__(self, parts):
        """PARTS as canonical as from_dict makes them: a tuple of int
        triples (degree, rank >= 0, d_1 | d_2 | ... all >= 2), degrees
        strictly increasing, no part of rank 0 without torsion."""
        if type(parts) is not tuple:
            raise ValueError(
                f"GradedGroup parts must be a tuple, got {parts!r}; "
                "GradedGroup.from_dict builds them from {degree: (rank, "
                "factors)}")
        after = None
        for part in parts:
            if not _canonical_part(part, after):
                where = (f"at degree {part[0]!r}"
                         if type(part) is tuple and len(part) == 3
                         else repr(part))
                raise ValueError(
                    f"GradedGroup part {where} is not canonical; "
                    "GradedGroup.from_dict builds canonical parts from "
                    "{degree: (rank, factors)}")
            after = part[0]
        Record.__init__(self, parts)

    @staticmethod
    def from_dict(groups):
        """groups: {degree: (rank, iterable of torsion factors)}."""
        parts = []
        for deg, (rank, factors) in groups.items():
            rank = as_int(rank, f"rank at degree {deg}")
            if rank < 0:
                raise ValueError(f"negative rank at degree {deg}")
            chain = invariant_factor_chain(factors)
            if rank or chain:
                parts.append((as_int(deg, "degree"), rank, chain))
        parts.sort()
        return GradedGroup._unchecked(tuple(parts))

    @staticmethod
    def zero():
        return GradedGroup._unchecked(())

    @staticmethod
    def free(ranks):
        """ranks: {degree: rank}; convenience for torsion-free groups."""
        return GradedGroup.from_dict({d: (r, ()) for d, r in ranks.items()})

    def at(self, k):
        """(rank, torsion chain) in degree k; (0, ()) off the support."""
        for deg, rank, chain in self.parts:
            if deg == k:
                return rank, chain
        return 0, ()

    def rank(self, k):
        return self.at(k)[0]

    def torsion(self, k):
        return self.at(k)[1]

    def reindex(self, shift, sign=1):
        """Degree k moves to shift + sign*k, sign +-1.  The chains are
        already canonical, so the parts are relabelled, not rebuilt."""
        if sign not in (1, -1):
            raise ValueError(f"reindex sign must be +1 or -1, got {sign!r}")
        shift = as_int(shift, "degree shift")
        return GradedGroup._unchecked(tuple(sorted(
            (shift + sign * deg, rank, chain) for deg, rank, chain in self.parts)))

    def first_difference(self, other):
        """Least degree where self and other differ, or None when equal."""
        return min((deg for deg, _, _ in set(self.parts) ^ set(other.parts)),
                   default=None)

    @property
    def support(self):
        return tuple(deg for deg, _, _ in self.parts)

    @property
    def field_support(self):
        """Degrees where dim over Q or F2 can be nonzero: the support and
        one past each degree of it, as F2 counts the even torsion below."""
        return tuple(sorted({i for d in self.support for i in (d, d + 1)}))

    def direct_sum(self, other):
        merged = {}
        for deg, rank, chain in self.parts + other.parts:
            r0, f0 = merged.get(deg, (0, ()))
            merged[deg] = (r0 + rank, f0 + chain)
        return GradedGroup.from_dict(merged)

    def dim(self, k, coeff="Q"):
        """dim over a field: Q = rank; F2 adds even torsion from k and k-1."""
        rank, chain = self.at(k)
        if coeff == "Q":
            return rank
        if coeff == "F2":
            return rank + sum(f % 2 == 0 for f in chain + self.torsion(k - 1))
        raise ValueError(f"unsupported coefficient field {coeff!r} (use Q or F2)")

    def describe(self):
        """Human-readable form like 'Z^2 + Z/2 + Z/4 [deg 3]'."""
        if not self.parts:
            return "0"
        bits = []
        for deg, rank, chain in self.parts:
            terms = []
            if rank == 1:
                terms.append("Z")
            elif rank > 1:
                terms.append(f"Z^{rank}")
            terms.extend(f"Z/{f}" for f in chain)
            bits.append(f"deg {deg}: " + " + ".join(terms))
        return "; ".join(bits)

    def to_json(self):
        return {"schema": SCHEMA_VERSION, "graded_group": _write_groups(
            {deg: (rank, chain) for deg, rank, chain in self.parts})}

    @staticmethod
    @reader("GradedGroup")
    def from_json(doc):
        groups = doc.get("graded_group")
        if not isinstance(groups, dict):
            raise SchemaError("missing 'graded_group' object")
        # this document's own message for a key that spells no degree
        for deg in groups:
            if not re.fullmatch(r"[+-]?[0-9]+", str(deg)):
                raise SchemaError(f"bad degree key {deg!r}")
        return GradedGroup.from_dict(_read_groups(groups, "graded_group"))


class ChainComplex(Record):
    """Integer chain complex: generator counts n_k and boundaries d_k: C_k -> C_{k-1}.

    Matrices are rows-of-ints with shape (n_{k-1}, n_k); omitted matrices are
    zero maps.  d d = 0 is checked at construction.
    """
    __slots__ = ("dims", "boundaries")
    _codecs = {"dims": degree_map(INT),
               "boundaries": optional(degree_map(MATRIX), None)}

    def __init__(self, dims, boundaries=None):
        counts = ((k, as_int(v, f"generator count at degree {k}"))
                  for k, v in dims.items())
        dims = {as_int(k, "degree"): v for k, v in counts if v}
        for k, v in dims.items():
            if v < 0:
                raise ValueError(f"negative generator count at degree {k}")
            if k < 0:
                raise ValueError("negative degrees are not supported")
        nonzero = {}
        for k, rows in (boundaries or {}).items():
            k = as_int(k, "boundary degree")
            try:
                rows = _as_rows(rows)
            except ValueError as e:
                raise ValueError(f"boundary d_{k}: {e}") from None
            nrows = len(rows)
            ncols = len(rows[0]) if rows else 0
            if nrows != dims.get(k - 1, 0) or ncols != dims.get(k, 0):
                raise ValueError(
                    f"boundary d_{k} has shape {nrows}x{ncols}, expected "
                    f"{dims.get(k - 1, 0)}x{dims.get(k, 0)}")
            if any(any(row) for row in rows):
                nonzero[k] = rows
        # d_{k} . d_{k+1} = 0
        for k, d in nonzero.items():
            nxt = nonzero.get(k + 1)
            if nxt is not None:
                if any(any(row) for row in mat_mul(d, nxt)):
                    raise ValueError(f"d_{k} . d_{k + 1} != 0: not a chain complex")
        Record.__init__(self, dims, nonzero)

    @property
    def degrees(self):
        return sorted(self.dims)

    @property
    def top_degree(self):
        return max(self.dims, default=0)

    def dim(self, k):
        return self.dims.get(k, 0)

    def boundary(self, k):
        return self.boundaries.get(k)

    def euler_characteristic(self):
        return sum((-1) ** k * n for k, n in self.dims.items())

    def direct_sum(self, other):
        """Block sum; generator order: self's then other's in each degree."""
        dims = Counter(self.dims)
        dims.update(other.dims)
        boundaries = {
            k: block_sum(self.boundary(k), other.boundary(k),
                         (self.dim(k - 1), self.dim(k)),
                         (other.dim(k - 1), other.dim(k)))
            for k in set(self.boundaries) | set(other.boundaries)}
        return ChainComplex(dict(dims), boundaries)


def homology(complex_: ChainComplex) -> GradedGroup:
    """H_k = ker d_k / im d_{k+1} as a canonical GradedGroup.

    rank H_k = n_k - rank d_k - rank d_{k+1}; torsion H_k = invariant
    factors >= 2 of d_{k+1}.  Each boundary map's rank and factors come from
    `invariant_factors`, which builds no transforms.
    """
    # (rank, invariant factors) of each nonzero d_k; a zero d_k is (0, ())
    factors = {k: invariant_factors(m)
               for k, m in complex_.boundaries.items()}
    groups = {}
    for k in complex_.degrees:
        r_k1, torsion = factors.get(k + 1, (0, ()))
        rank = complex_.dim(k) - factors.get(k, (0,))[0] - r_k1
        if rank < 0:
            raise AssertionError("negative Betti number: broken SNF rank")
        groups[k] = (rank, tuple(f for f in torsion if f >= 2))
    return GradedGroup.from_dict(groups)


def cohomology_from_homology(h: GradedGroup) -> GradedGroup:
    """Universal coefficients over Z: H^k free part = H_k's, torsion from H_{k-1}."""
    degrees = set(h.support) | {d + 1 for d in h.support}
    return GradedGroup.from_dict(
        {k: (h.rank(k), h.torsion(k - 1)) for k in degrees})


def homology_from_cohomology(hstar: GradedGroup) -> GradedGroup:
    """Inverse universal-coefficients reindex: torsion of H_k sits in H^{k+1}."""
    degrees = set(hstar.support) | {d - 1 for d in hstar.support}
    return GradedGroup.from_dict(
        {k: (hstar.rank(k), hstar.torsion(k + 1)) for k in degrees})


def euler_characteristic(g: GradedGroup) -> int:
    return sum((-1) ** deg * rank for deg, rank, _ in g.parts)


def semi_characteristic(g: GradedGroup, n: int, coeff="Q") -> int:
    """Sum of dim H_i for i <= (n-1)/2, mod 2; n must be odd."""
    n = as_int(n, "dimension n")
    if n % 2 == 0:
        raise ValueError(f"semi-characteristic needs odd n, got {n}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    half = (n - 1) // 2
    # degree 0 always, so a bad coeff raises
    degrees = {0} | {i for i in g.field_support if 0 <= i <= half}
    return sum(g.dim(i, coeff) for i in degrees) % 2


def _subtract_summand(rank_in, factors_in, rank_c, factors_c, deg):
    if rank_c > rank_in:
        raise ValueError(f"degree {deg}: rank {rank_c} summand exceeds rank {rank_in}")
    base = _coprime_base(list(factors_in) + list(factors_c))
    have = _elementary_divisors(factors_in, base)
    need = _elementary_divisors(factors_c, base)
    rem = have - need
    if sum(rem.values()) != sum(have.values()) - sum(need.values()):
        raise ValueError(f"degree {deg}: torsion is not a direct summand")
    left = []
    for (b, e), mult in rem.items():
        left.extend([b ** e] * mult)
    return rank_in - rank_c, invariant_factor_chain(left)


def cancel_summand(a_plus_c: GradedGroup, b_plus_c: GradedGroup,
                   c: GradedGroup):
    """Cancel a common direct summand C; returns (A, B, iso).

    Krull-Schmidt for finitely generated abelian groups makes the
    complement well defined up to isomorphism, so iso = (A == B) is the
    honest verdict, and isomorphic inputs always give iso = True.
    """
    def strip(total):
        return GradedGroup.from_dict({
            deg: _subtract_summand(*total.at(deg), *c.at(deg), deg)
            for deg in set(total.support) | set(c.support)})

    a, b = strip(a_plus_c), strip(b_plus_c)
    return a, b, a == b
