"""Reeb chord bookkeeping: degrees from front data, zig-zag stabilization,
and the self-intersection index of the induced regular homotopy.

Fronts are abstracted to (down-cusps, up-cusps, Morse index) triples; that
is exactly what the degree formula consumes, and no more geometry is kept.
All actions are exact rationals.  stabilize builds its zig-zag chords from
columns through Record's trusted build, without the per-record checks, and
is a bulk build, run with the cyclic collector off.
"""

from itertools import repeat

from .serialize import (
    BOOL,
    INT,
    RATIONAL,
    RAW,
    STRING,
    Record,
    _Pair,
    _less,
    _spectrum_fields,
    _times,
    as_int,
    as_rational,
    bool_from_json,
    bulk,
    optional,
    ratio_to_str,
    records_of,
    str_from_json,
    tuple_of,
)


def chord_degree(down, up, ind):
    """Degree of a chord from its front: down - up + ind - 1."""
    if type(down) is not int or type(up) is not int or type(ind) is not int:
        down = as_int(down, "down-cusp count")
        up = as_int(up, "up-cusp count")
        ind = as_int(ind, "Morse index")
    if down < 0 or up < 0 or ind < 0:
        raise ValueError(
            f"cusp counts and Morse index must be >= 0, got ({down}, {up}, {ind})")
    return down - up + ind - 1


class ChordRecord(Record):
    """One Reeb chord: non-empty string id, integer degree, positive
    rational action, optional front provenance (down-cusps, up-cusps, Morse
    index of the height difference), and whether its class in pi_1
    relative the Legendrian vanishes (non-null-homotopic chords carry no
    canonical grading and are excluded from word enumeration downstream).
    The action is held as its pair (p, q) in lowest terms, the same way
    however the record was made; `action` builds the Fraction on each read."""
    __slots__ = ("id", "degree", "_action", "front", "null_homotopic")
    _rationals = ("action",)
    # the constructor checks the id, so its codec passes it through
    _codecs = {"id": RAW, "degree": INT, "action": RATIONAL,
               "front": optional(tuple_of(INT, "front entry"), None),
               "null_homotopic": optional(BOOL, True)}
    _schema = False

    def __init__(self, id, degree, action, front=None, null_homotopic=True):
        if not isinstance(id, str):
            raise ValueError(f"chord id must be a string, got {id!r}")
        if not id:
            raise ValueError("chord id must not be empty")
        if type(degree) is not int:
            degree = as_int(degree, f"chord {id!r}: degree")
        if type(action) is not _Pair:
            action = as_rational(action, f"chord {id!r}: action")
        if action[0] <= 0:
            raise ValueError(f"chord {id!r}: action must be positive")
        if front is not None:
            try:
                d, u, ind = front
            except ValueError:
                raise ValueError(
                    f"chord {id!r}: front must be (D, U, ind)") from None
            front = tuple(as_int(x, f"chord {id!r}: front entry")
                          for x in (d, u, ind))
            expect = chord_degree(*front)
            if expect != degree:
                raise ValueError(
                    f"chord {id!r}: degree {degree} does not match "
                    f"front value {expect}")
        if type(null_homotopic) is not bool:
            bool_from_json(null_homotopic, "null_homotopic")
        Record.__init__(self, id, degree, action, front, null_homotopic)


class ChordSpectrum(Record):
    """All chords with action below the bound, for a contact boundary of
    half-dimension n.  Finite by genericity; ids must be distinct."""
    __slots__ = ("n", "chords", "_bound")
    _rationals = ("bound",)
    _codecs = {"n": INT, "bound": RATIONAL, "chords": records_of(ChordRecord)}

    def __init__(self, n, chords, bound):
        n, chords, bound, over = _spectrum_fields(n, chords, bound)
        # the first fault in chord order, a repeated id before an action
        seen = set()
        for c in chords[:over + 1]:
            if c.id in seen:
                raise ValueError(f"duplicate chord id {c.id!r}")
            seen.add(c.id)
        if over < len(chords):
            c = chords[over]
            raise ValueError(f"chord {c.id!r}: action {c.action} >= "
                             f"bound {ratio_to_str(bound)}")
        Record.__init__(self, n, chords, bound)

    def min_degree(self):
        return min((c.degree for c in self.chords), default=None)


class MorseData(Record):
    """A closed manifold Q carried as Morse data only: its dimension, Euler
    characteristic, orientability, and critical point indices.  The Morse
    equation sum (-1)^ind = chi is enforced."""
    __slots__ = ("name", "dimension", "chi", "orientable", "critical_points")
    _codecs = {"name": STRING, "dimension": INT, "chi": INT,
               "orientable": BOOL,
               "critical_points": tuple_of(INT, "critical index")}

    def __init__(self, name, dimension, chi, orientable, critical_points):
        str_from_json(name, "name")
        dimension = as_int(dimension, "dimension")
        chi = as_int(chi, "chi")
        bool_from_json(orientable, "orientable")
        critical_points = tuple(
            as_int(i, "critical index") for i in critical_points)
        if dimension < 0:
            raise ValueError("dimension must be >= 0")
        for i in critical_points:
            if not 0 <= i <= dimension:
                raise ValueError(
                    f"critical index {i} outside [0, {dimension}]")
        alt = sum((-1) ** i for i in critical_points)
        if alt != chi:
            raise ValueError(
                f"Morse data inconsistent: sum (-1)^ind = {alt} != chi = {chi}")
        Record.__init__(self, name, dimension, chi, orientable,
                        critical_points)


def _fresh_id(cid, used):
    """cid with "_" appended until it is not in the set used; adds it."""
    while cid in used:
        cid += "_"
    used.add(cid)
    return cid


def min_positive_N(spectrum: ChordSpectrum):
    """Smallest stabilization count making every degree positive: 0 when
    already positive, else 1 - (minimum degree)."""
    m = spectrum.min_degree()
    if m is None or m >= 1:
        return 0
    return 1 - m


@bulk
def stabilize(spectrum: ChordSpectrum, N, q_data: MorseData,
              zigzag_action=None, sites=None) -> ChordSpectrum:
    """Zig-zag stabilization: every existing chord's degree rises by 2N
    (its front gains 2N down-cusps), and each of the `sites` modified
    endpoints picks up 2N new chords per critical point of Q, of degree
    1 + Ind(p) and action strictly below zigzag_action.

    zigzag_action defaults to half of min(1, spectrum bound).  sites
    defaults to the number of non-positive-degree chords (one modification
    site each).  N = 0 is allowed and is the identity.
    """
    N = as_int(N, "N")
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    if N == 0:
        return spectrum
    bound = spectrum._bound
    # by default half of min(1, bound)
    eps = (as_rational(zigzag_action, "zigzag action")
           if zigzag_action is not None
           else _times(bound if _less(bound, (1, 1)) else (1, 1), (1, 2)))
    if eps[0] <= 0:
        raise ValueError("zigzag action scale must be positive")
    if not _less(eps, bound):
        raise ValueError(
            f"zigzag action {ratio_to_str(eps)} >= spectrum bound "
            f"{spectrum.bound}: new chords would break the bound")
    if sites is None:
        sites = sum(1 for c in spectrum.chords if c.degree <= 0)
    sites = as_int(sites, "sites")
    if sites < 0:
        raise ValueError("sites must be >= 0")

    # every old chord's front gains 2N down-cusps, so its degree still
    # matches; a front is None or a (D, U, ind) triple
    out = [ChordRecord._unchecked(
        c.id, c.degree + 2 * N, c._action,
        c.front and (c.front[0] + 2 * N, *c.front[1:]), c.null_homotopic)
        for c in spectrum.chords]
    # The zig-zag records below are valid by construction, so none is
    # re-validated: each has front (2, 0, ind), degree 1 + ind, action
    # eps * t / (total + 1) in (0, eps) and an id kept apart from the old
    # ones.  Only the front-to-degree match rests on chord_degree, so it is
    # checked here, once per critical index.
    for ind in set(q_data.critical_points):
        if chord_degree(2, 0, ind) != 1 + ind:
            raise ValueError(
                f"zig-zag front (2, 0, {ind}) does not have degree {1 + ind}")
    total = 2 * N * len(q_data.critical_points) * sites
    ids = [f"zz{t}" for t in range(1, total + 1)]
    used = {c.id for c in out}
    if not used.isdisjoint(ids):
        # e.g. re-stabilizing: an old zz<t> pushes the new one to zz<t>_
        ids = [_fresh_id(cid, used) for cid in ids]
    degrees = [1 + ind for ind in q_data.critical_points
               for copy in range(2 * N)] * sites
    fronts = [front for ind in q_data.critical_points
              for front in repeat((2, 0, ind), 2 * N)] * sites
    # action t is t e/K, e/K = eps/(total + 1) in lowest terms, so it is
    # (e t/d, K/d) for d = gcd(t, K): one slice per divisor d <= total of
    # K, ascending so that the largest writes last, and no gcd per record
    e, K = _times(eps, (1, total + 1))
    actions = list(zip(range(e, e * total + 1, e), repeat(K)))
    for d in range(2, min(total, K) + 1):
        if K % d == 0:
            actions[d - 1::d] = zip(range(e, e * (total // d) + 1, e),
                                    repeat(K // d))
    out += ChordRecord._unchecked_columns(total, ids, degrees, actions,
                                          fronts, repeat(True))
    return ChordSpectrum._unchecked(spectrum.n, tuple(out), bound)


class SelfIntersectionIndex(Record):
    """Signed count of double points of the regular homotopy; lives in Z
    for even n with orientable Q, in Z/2 otherwise (modulus "Z" or
    "Z/2")."""
    __slots__ = ("value", "modulus")

    @property
    def vanishes(self):
        return self.value == 0


def self_intersection_index(n, N, q_data: MorseData) -> SelfIntersectionIndex:
    """(-1)^{(n-1)(n-2)/2} * N * chi(Q), reduced mod 2 unless the count is
    honestly integer-valued (n even and Q orientable)."""
    n, N = as_int(n, "half-dimension n"), as_int(N, "N")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    sign = (-1) ** (((n - 1) * (n - 2)) // 2)
    raw = sign * N * q_data.chi
    if n % 2 == 0 and q_data.orientable:
        return SelfIntersectionIndex(raw, "Z")
    return SelfIntersectionIndex(raw % 2, "Z/2")


def choose_Q(n) -> MorseData:
    """A closed orientable Q of dimension n-2 with chi = 0 that embeds in
    R^{n-1}: the circle for n = 3, S^1 x S^{n-3} for n >= 4.  No such Q
    exists for n = 2 (zero-manifolds have chi > 0)."""
    n = as_int(n, "half-dimension n")
    if n <= 2:
        raise ValueError(
            f"no chi = 0 choice in dimension {n - 2}: every closed 0-manifold "
            "has positive Euler characteristic" if n == 2
            else f"need n >= 3, got {n}")
    if n == 3:
        return MorseData("S^1", 1, 0, True, (0, 1))
    return MorseData(f"S^1 x S^{n - 3}", n - 2, 0, True,
                     (0, 1, n - 3, n - 2))
