"""Cyclic-word enumeration over chord alphabets, orbit spectra of surgered
contact manifolds, and ADC certificates with their transformations.

Contact forms are modeled by positive scale factors relative to stage 1:
every check performed here (monotonicity, rescaling transport, the 4^k
bookkeeping) factors through scales and per-step bound constants.  Every
action, bound and scale is held as integers (p, q) in lowest terms, which
its public attribute reads as a Fraction: windows, rescaling, the
certificate checks and the word sums are integer arithmetic, and nothing is
compared in floating point.  Every action-valued argument is read by
as_rational, so a float is refused, never rounded.

Words come from one level-order walk, _walk, cyclic or linear.  Its
invariant: each level (word length) is in letter order, so words come out
in (length, letters) order with no sort, each cyclic word below the bound
once, as its least rotation.  enumerate_words, orbits_after_surgery and
belt_sphere_chords build their records from its columns, and the other
transformations theirs, without the per-record checks, through Record's
trusted builds; CyclicWord(...) built by a caller still canonicalizes its
letters.  The four word builders (those three and nonsimultaneous_words)
are bulk builds: they run with the cyclic collector off, since thousands
of records need no cycle search.  A name spelled from letters
(orbit origin "word:a.b", belt chord "w:a.b", mixed chord "mix:x.a.b.y")
is built by _labels, and two words with one name are an error; a
generated name ("zz<t>" in stabilize, "surg" in add_surgery_chord) takes
"_" appended until it is fresh.
"""

from collections import Counter
from itertools import compress, repeat
from math import lcm

from .chords import ChordRecord, ChordSpectrum, _fresh_id, choose_Q, min_positive_N, stabilize
from .serialize import (
    BOOL,
    INT,
    RATIONAL,
    STRING,
    Record,
    Verdict,
    _Pair,
    _less,
    _spectrum_fields,
    _times,
    as_int,
    as_rational,
    bool_from_json,
    bulk,
    lowest_terms,
    optional,
    ratio_to_str,
    record_of,
    records_of,
)


def canonical_rotation(seq):
    """Lexicographically least rotation; the identity of a cyclic word."""
    seq = tuple(seq)
    if not seq:
        raise ValueError("empty word has no canonical rotation")
    # the least rotation starts with the least letter
    least, twice, n = min(seq), seq + seq, len(seq)
    return min(twice[i:i + n] for i in range(n) if seq[i] == least)


class CyclicWord(Record):
    """A cyclic equivalence class of chord ids with its total degree and
    action.  letters always stores the canonical (least) rotation."""
    __slots__ = ("letters", "degree", "_action")
    _rationals = ("action",)

    def __init__(self, letters, degree, action):
        Record.__init__(self, canonical_rotation(letters), degree,
                        as_rational(action, "word action"))

    def __len__(self):
        return len(self.letters)

    def label(self):
        return ".".join(self.letters)


@bulk
def enumerate_words(spectrum: ChordSpectrum, bound,
                    skip_non_null_homotopic=False):
    """All cyclic words over the chord alphabet with total action < bound,
    each once, as its least rotation, sorted by (length, letters).

    Non-null-homotopic chords carry no canonical grading, so their presence
    is an error unless skip_non_null_homotopic drops them instead.
    Termination is guaranteed by positivity of actions.
    """
    letters, degrees, actions = _cyclic_words(
        spectrum, as_rational(bound, "word action bound"), 0,
        skip_non_null_homotopic)
    return tuple(CyclicWord._unchecked_columns(len(letters), letters,
                                               degrees, actions))


def _cyclic_words(spectrum, bound, shift, skip_non_null_homotopic=False):
    """_walk over the null-homotopic chords below the bound (p, q), as
    enumerate_words reads it."""
    if bound[0] <= 0:
        raise ValueError(
            f"word action bound must be positive, got {ratio_to_str(bound)}")
    alphabet = [c for c in spectrum.chords if c.null_homotopic]
    if len(alphabet) < len(spectrum.chords) and not skip_non_null_homotopic:
        c = next(c for c in spectrum.chords if not c.null_homotopic)
        raise ValueError(
            f"chord {c.id!r} is not null-homotopic and has no canonical "
            "grading (pass skip_non_null_homotopic to drop such chords)")
    return _walk(alphabet, bound, shift, True)


def _walk(chords, bound, shift, cyclic, base=(0, 1)):
    """Words over chords with action + base < bound in (length, letters)
    order, as columns: letter tuples, degrees + shift, and an iterator over
    actions + base.  Actions, bound and base are pairs (p, q).
    Cyclic words come once, as least rotations; linear ones all, () first."""
    letters, (cap, base), den = _lattice(chords, bound, base)
    letters = [x for x in letters if base + x[0] < cap]
    # Fredricksen-Kessler-Maiorana in level order; level L is four columns:
    # prenecklaces of length L, periods, actions, degrees.  A prenecklace
    # whose longest Lyndon prefix has period p extends by the letters >=
    # seq[-p] (follow): seq[-p] keeps p, a larger letter makes it Lyndon;
    # it is a necklace iff p divides its length.  Pruning at the cap loses
    # none, as every prefix of a word below the cap is below it.  A linear
    # word extends by every letter and keeps p = 1, so all are emitted.
    # Invariant: each level is in letter order and each node appends its
    # children in ascending letter order, so the next is too: no sort.
    follow = {first: [(num, (cid,), d, not cyclic or j == i)
                      for j, (num, cid, d) in enumerate(letters)
                      if j >= i or not cyclic]
              for i, (_, first, _) in enumerate(letters)}
    words, nums, degrees = ([], [], []) if cyclic or cap <= base \
        else ([()], [base], [shift])
    seqs = [(cid,) for _, cid, _ in letters]
    periods = [1] * len(seqs)
    acts = [base + num for num, _, _ in letters]
    degs = [d + shift for _, _, d in letters]
    length = 1
    while seqs:
        emit = [length % p == 0 for p in periods]
        words += compress(seqs, emit)
        nums += compress(acts, emit)
        degrees += compress(degs, emit)
        length += 1
        level, seqs, periods, acts, degs = \
            zip(seqs, periods, acts, degs), [], [], [], []
        for seq, p, act, deg in level:
            room = cap - act
            for num, letter, d, keep in follow[seq[-p]]:
                if num < room:
                    seqs.append(seq + letter)
                    periods.append(p if keep else length)
                    acts.append(act + num)
                    degs.append(deg + d)
    # few distinct sums: reduce each once, and share its pair
    pairs = {num: lowest_terms(num, den) for num in set(nums)}
    return words, degrees, map(pairs.__getitem__, nums)


def _labels(prefix, words, what):
    """prefix + "a.b.c" for each word, a tuple of ids.  Two words share a
    label only when a letter id holds the "." itself: the one-letter word
    "a.b" and the word a, b.  Such a clash raises."""
    labels = [prefix + ".".join(w) for w in words]
    if len(set(labels)) < len(labels):
        clash = next(x for x, k in Counter(labels).items() if k > 1)
        raise ValueError(f"duplicate {what} {clash!r}")
    return labels


def _lattice(chords, *actions):
    """The chords sorted by id as (action numerator, id, degree), the
    numerators of the further actions (p, q), and their one common
    denominator: sums and comparisons of actions become int operations."""
    den = lcm(*(q for _, q in actions), *(c._action[1] for c in chords))

    def num(pair):
        return pair[0] * (den // pair[1])
    letters = [(num(c._action), c.id, c.degree)
               for c in sorted(chords, key=lambda c: c.id)]
    return letters, [num(a) for a in actions], den


class OrbitRecord(Record):
    """One closed orbit: degree, positive rational action, provenance
    (pre-existing, a chord word, or a belt-sphere iterate), and whether it
    is contractible.  Non-contractible orbits have no canonical degree and
    are skipped by positivity checks."""
    __slots__ = ("degree", "_action", "origin", "contractible")
    _rationals = ("action",)
    _codecs = {"degree": INT, "action": RATIONAL,
               "origin": optional(STRING, "old"),
               "contractible": optional(BOOL, True)}
    _schema = False

    def __init__(self, degree, action, origin="old", contractible=True):
        if type(degree) is not int:
            degree = as_int(degree, "orbit degree")
        if type(action) is not _Pair:
            action = as_rational(action, "orbit action")
        if action[0] <= 0:
            raise ValueError("orbit action must be positive")
        if not isinstance(origin, str):
            raise ValueError(f"orbit origin must be a string, got {origin!r}")
        if not (origin == "old"
                or (origin.startswith("word:") and len(origin) > 5)):
            if not origin.startswith("belt:"):
                raise ValueError(f"bad origin {origin!r}: use 'old', "
                                 "'word:<ids>', 'belt:<j>'")
            # as subcritical_surgery writes it: ASCII digits, no sign,
            # no leading zero, so each iterate has one spelling
            j = origin[5:]
            if not (j.isascii() and j.isdigit() and j[0] != "0"):
                raise ValueError(
                    f"belt origin needs iterate >= 1 in decimal digits "
                    f"without a leading zero, got {origin!r}")
        if type(contractible) is not bool:
            bool_from_json(contractible, "contractible")
        Record.__init__(self, degree, action, origin, contractible)


class OrbitSpectrum(Record):
    """All closed orbits with action below the bound; finite by genericity,
    which is a caller assertion carried as the generic flag."""
    __slots__ = ("n", "orbits", "_bound", "generic")
    _rationals = ("bound",)
    _codecs = {"n": INT, "bound": RATIONAL, "generic": optional(BOOL, True),
               "orbits": records_of(OrbitRecord)}

    def __init__(self, n, orbits, bound, generic=True):
        n, orbits, bound, over = _spectrum_fields(n, orbits, bound)
        if over < len(orbits):
            raise ValueError(f"orbit action {orbits[over].action} >= bound "
                             f"{ratio_to_str(bound)}")
        bool_from_json(generic, "generic")
        Record.__init__(self, n, orbits, bound, generic)


def _requested(spectrum, bound, what):
    """The requested BOUND as a pair, checked to lie in SPECTRUM's window."""
    bound = as_rational(bound, "requested bound")
    if _less(spectrum._bound, bound):
        raise ValueError(f"requested bound {ratio_to_str(bound)} exceeds the "
                         f"known {what} window {spectrum.bound}")
    return bound


@bulk
def orbits_after_surgery(old: OrbitSpectrum, chords: ChordSpectrum,
                         bound) -> OrbitSpectrum:
    """Orbit spectrum after attaching the handle along the chords' Legendrian:
    the old orbits below the bound plus one orbit per cyclic chord word w,
    graded |w| + n - 3."""
    n = old.n
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if chords.n != n:
        raise ValueError(f"half-dimensions differ: {chords.n} != {n}")
    bound = _requested(old, bound, "orbit")
    kept = [r for r in old.orbits if _less(r._action, bound)]
    words, degrees, actions = _cyclic_words(chords, bound, n - 3)
    # every action is below the bound, so neither the records nor the
    # spectrum are checked again
    kept += OrbitRecord._unchecked_columns(
        len(words), degrees, actions, _labels("word:", words, "orbit origin"),
        repeat(True))
    return OrbitSpectrum._unchecked(n, tuple(kept), bound, old.generic)


def subcritical_surgery(spectrum: OrbitSpectrum, n, k, iterates, eps,
                        hypotheses_asserted=False) -> OrbitSpectrum:
    """Orbits created by an index-k subcritical handle: iterate j of the
    handle's core orbit has degree 2n - k - 4 + 2j (always positive) and is
    contractible; actions are eps * j for the handle-shrinking parameter eps.

    k = 2 changes pi_1 and needs the extra contractibility hypotheses
    asserted by the caller.
    """
    n, k = as_int(n, "half-dimension n"), as_int(k, "handle index k")
    iterates = as_int(iterates, "iterates")
    if n != spectrum.n:
        raise ValueError(f"n = {n} does not match spectrum n = {spectrum.n}")
    if not 1 <= k < n:
        raise ValueError(f"subcritical needs 1 <= k < n, got k = {k}, n = {n}")
    if k == 2 and not hypotheses_asserted:
        raise ValueError(
            "index-2 surgery changes pi_1; pass hypotheses_asserted=True "
            "after checking contractibility of the relevant orbits")
    if iterates < 0:
        raise ValueError("iterate horizon must be >= 0")
    if iterates == 0:
        return spectrum
    eps = as_rational(eps, "handle-shrinking parameter")
    if eps[0] <= 0:
        raise ValueError("handle-shrinking parameter must be positive")
    top = _times(eps, (iterates, 1))
    if not _less(top, spectrum._bound):
        raise ValueError(
            f"eps * iterates = {ratio_to_str(top)} >= bound {spectrum.bound}; "
            "shrink the handle further")
    # every action eps * j is at most eps * iterates, below the bound
    new = [OrbitRecord._unchecked(2 * n - k - 4 + 2 * j, _times(eps, (j, 1)),
                                  f"belt:{j}", True)
           for j in range(1, iterates + 1)]
    return OrbitSpectrum._unchecked(spectrum.n, spectrum.orbits + tuple(new),
                                    spectrum._bound, spectrum.generic)


def add_surgery_chord(spectrum: ChordSpectrum, k,
                      new_action=None) -> ChordSpectrum:
    """Chord spectrum after an index-k ambient (or simultaneous) surgery on
    the Legendrian: one new short chord of degree n - k - 1 near the belt.

    Critical-index surgery (k = n - 1) would create a degree-0 chord and is
    excluded outright.
    """
    n, k = spectrum.n, as_int(k, "handle index k")
    if not 1 <= k < n - 1:
        raise ValueError(
            f"need 1 <= k < n - 1 = {n - 1}, got k = {k}"
            + (": critical surgery creates degree-0 chords" if k == n - 1 else ""))
    bound = spectrum._bound
    action = as_rational(new_action, "new chord action") \
        if new_action is not None else _times(bound, (1, 1000))
    if not 0 < action[0] or not _less(action, bound):
        raise ValueError(f"new chord action must lie in (0, {spectrum.bound})")
    cid = _fresh_id("surg", {c.id for c in spectrum.chords})
    new = ChordRecord._unchecked(cid, n - k - 1, action, None, True)
    return ChordSpectrum._unchecked(n, spectrum.chords + (new,), bound)


@bulk
def belt_sphere_chords(spectrum: ChordSpectrum, bound=None) -> ChordSpectrum:
    """Chords of the belt sphere after critical surgery along the alphabet's
    Legendrian: one chord per cyclic word w, graded |w| + n - 2."""
    n = spectrum.n
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    bound = spectrum._bound if bound is None \
        else _requested(spectrum, bound, "chord")
    words, degrees, actions = _cyclic_words(spectrum, bound, n - 2)
    # every action is below the bound and _labels keeps the ids distinct
    chords = tuple(ChordRecord._unchecked_columns(
        len(words), _labels("w:", words, "chord id"), degrees, actions,
        repeat(None), repeat(True)))
    return ChordSpectrum._unchecked(n, chords, bound)


@bulk
def nonsimultaneous_words(s_minus: ChordSpectrum, aux: ChordSpectrum,
                          connector_in: ChordRecord, connector_out: ChordRecord,
                          zigzag_action=None) -> ChordSpectrum:
    """Chord spectrum when the auxiliary Legendrian sits in the complement:
    the original chords survive unchanged, and every mixed word
    connector_in . c_1 ... c_k . connector_out (c_i from the auxiliary
    alphabet, k >= 0, linear not cyclic) becomes a chord.

    The auxiliary alphabet is zig-zag stabilized to positive degrees first,
    so with positive-degree connectors all mixed chords have positive degree.
    """
    n = s_minus.n
    if aux.n != n:
        raise ValueError(f"half-dimensions differ: {aux.n} != {n}")
    for c, name in ((connector_in, "connector_in"), (connector_out, "connector_out")):
        if c.degree <= 0:
            raise ValueError(
                f"{name} has degree {c.degree} <= 0; stabilize the complement "
                "presentation until connectors are positive")
    aux = _positive(aux, zigzag_action)

    (ip, iq), (op, oq) = connector_in._action, connector_out._action
    base_degree = connector_in.degree + connector_out.degree
    middles, degrees, actions = _walk(aux.chords, s_minus._bound, base_degree,
                                      False, (ip * oq + op * iq, iq * oq))
    null = connector_in.null_homotopic and connector_out.null_homotopic
    ids = _labels("mix:", [(connector_in.id,) + seq + (connector_out.id,)
                           for seq in middles], "chord id")
    # each action is positive and below the bound, and a clash with an id
    # of s_minus is raised by the checked spectrum
    out = s_minus.chords + tuple(ChordRecord._unchecked_columns(
        len(ids), ids, degrees, actions, repeat(None), repeat(null)))
    return ChordSpectrum(n, out, s_minus.bound)


def _positive(spectrum, zigzag_action):
    """The spectrum stabilized the fewest times that make all degrees > 0."""
    N = min_positive_N(spectrum)
    if N == 0:
        return spectrum
    return stabilize(spectrum, N, choose_Q(spectrum.n), zigzag_action)


def rescale(x, s):
    """Scale transport: actions and bound multiply by s, degrees unchanged.
    Works on chord and orbit spectra alike; rescale(s) o rescale(t) is
    rescale(s*t) and s = 1 is the identity."""
    s = as_rational(s, "scale")
    if s[0] <= 0:
        raise ValueError(f"scale must be positive, got {ratio_to_str(s)}")
    # a positive scale keeps every record valid, so none is checked again
    if isinstance(x, ChordSpectrum):
        return ChordSpectrum._unchecked(x.n, tuple(
            ChordRecord._unchecked(c.id, c.degree, _times(c._action, s),
                                   c.front, c.null_homotopic)
            for c in x.chords), _times(x._bound, s))
    if isinstance(x, OrbitSpectrum):
        return OrbitSpectrum._unchecked(x.n, tuple(
            OrbitRecord._unchecked(r.degree, _times(r._action, s), r.origin,
                                   r.contractible) for r in x.orbits),
            _times(x._bound, s), x.generic)
    raise TypeError(f"cannot rescale {type(x).__name__}")


class Stage(Record):
    """One stage of a certificate: a contact form (as a scale relative to
    stage 1), its action bound, and the orbit spectrum below that bound."""
    __slots__ = ("_scale", "_bound", "spectrum")
    _rationals = ("scale", "bound")
    _codecs = {"scale": RATIONAL, "bound": RATIONAL,
               "spectrum": record_of(OrbitSpectrum)}
    _schema = False

    def __init__(self, scale, bound, spectrum):
        scale = as_rational(scale, "stage scale")
        bound = as_rational(bound, "stage bound")
        if scale[0] <= 0:
            raise ValueError("stage scale must be positive")
        if bound != spectrum._bound:
            raise ValueError(f"stage bound {ratio_to_str(bound)} != spectrum "
                             f"bound {spectrum.bound}")
        Record.__init__(self, scale, bound, spectrum)


class ADCCertificate(Record):
    """Stages witnessing asymptotic dynamical convexity.  The constructor
    checks each stage locally; the cross-stage monotonicity conditions are
    the business of adc_check, so partially built or failing certificates
    can be represented and reported on."""
    __slots__ = ("stages",)
    _codecs = {"stages": records_of(Stage)}

    def __init__(self, stages):
        stages = tuple(stages)
        ns = {st.spectrum.n for st in stages}
        if len(ns) > 1:
            raise ValueError(f"stages mix half-dimensions {sorted(ns)}")
        Record.__init__(self, stages)

    @property
    def n(self):
        return self.stages[0].spectrum.n if self.stages else None


def adc_check(cert: ADCCertificate) -> Verdict:
    """Pass iff scales never increase, bounds strictly increase, and every
    contractible orbit in every stage has positive degree.  The witness is
    the first violation in stage order; an empty certificate passes
    vacuously."""
    prev = None
    for idx, st in enumerate(cert.stages, start=1):
        if prev is not None:
            if _less(prev._scale, st._scale):
                return Verdict("ADC certificate invalid", False, witness={
                    "stage": idx, "violation": "scale increased",
                    "scale": ratio_to_str(st._scale),
                    "previous": ratio_to_str(prev._scale)})
            if not _less(prev._bound, st._bound):
                return Verdict("ADC certificate invalid", False, witness={
                    "stage": idx, "violation": "bound not strictly increasing",
                    "bound": ratio_to_str(st._bound),
                    "previous": ratio_to_str(prev._bound)})
        for ridx, r in enumerate(st.spectrum.orbits):
            if r.contractible and r.degree <= 0:
                return Verdict("ADC certificate invalid", False, witness={
                    "stage": idx, "violation": "nonpositive contractible orbit",
                    "record": ridx, "degree": r.degree,
                    "action": ratio_to_str(r._action), "origin": r.origin})
        prev = st
    return Verdict("ADC certificate valid", True,
                   witness={"stages": len(cert.stages)})


def _require_adc(cert, error, prefix):
    """Raise error("<prefix>: <witness>") unless adc_check passes cert."""
    verdict = adc_check(cert)
    if not verdict.fired:
        raise error(f"{prefix}: {verdict.witness}")


def _scaled_stage(scale, bound, spectrum, factor):
    """The stage of SCALE, BOUND and SPECTRUM, each multiplied by the
    positive FACTOR."""
    return Stage._unchecked(_times(scale, factor), _times(bound, factor),
                            rescale(spectrum, factor))


def normalize_certificate(cert: ADCCertificate, eps) -> ADCCertificate:
    """Sharpen a valid certificate so consecutive scales drop by a factor
    eps and consecutive bounds grow by 1/eps: greedily take a subsequence
    with D_{next} >= D_current / eps^2, then multiply stage k by eps^k.

    Single-stage certificates are returned unchanged.
    """
    ep, eq = eps = as_rational(eps, "eps")
    if not 0 < ep < eq:
        raise ValueError(f"need 0 < eps < 1, got {ratio_to_str(eps)}")
    _require_adc(cert, ValueError, "input certificate fails")
    stages = cert.stages
    if len(stages) <= 1:
        return cert
    over_eps2 = _times((eq, ep), (eq, ep))
    out = []
    for st in stages:
        if out and _less(st._bound, need):
            continue
        k = len(out) + 1
        # eps^k is in lowest terms, as eps is
        out.append(_scaled_stage(st._scale, st._bound, st.spectrum,
                                 _Pair((ep ** k, eq ** k))))
        need = _times(st._bound, over_eps2)
    if len(out) < 2:
        raise ValueError(
            "certificate too short: no later stage has bound >= "
            f"{ratio_to_str(need)} = D_1 / eps^2")
    result = ADCCertificate(tuple(out))
    for a, b in zip(result.stages, result.stages[1:]):
        if (_less(_times(a._scale, eps), b._scale)
                or _less(b._bound, _times(a._bound, (eq, ep)))):
            raise AssertionError("normalize postcondition failed: stages do "
                                 "not shrink by eps")
    _require_adc(result, AssertionError, "normalize postcondition failed")
    return result


def flexible_surgery_certificate(cert: ADCCertificate, chords, n,
                                 zigzag_action=None) -> ADCCertificate:
    """Transport an ADC certificate through critical surgery along a loose
    Legendrian (n >= 3): greedily pick stages with D > k*4^k, window each
    to k*4^k, stabilize the stage's chord alphabet to positive degrees if
    needed, adjoin the word orbits (degree |w| + n - 3), and rescale stage
    k by 4^{-k} so the output bounds are exactly 1, 2, 3, ...

    chords: one ChordSpectrum per input stage, a single spectrum used for
    every stage, or None for no chords at all.
    """
    n = as_int(n, "half-dimension n")
    if n < 3:
        raise ValueError(f"flexibility needs n >= 3, got n = {n}")
    if cert.stages and cert.n != n:
        raise ValueError(f"certificate has n = {cert.n}, expected {n}")
    _require_adc(cert, ValueError, "input certificate fails")
    if chords is None or isinstance(chords, ChordSpectrum):
        chords = [chords] * len(cert.stages)
    elif len(chords) != len(cert.stages):
        raise ValueError(
            f"need one chord spectrum per stage ({len(cert.stages)}), "
            f"got {len(chords)}")

    out = []
    for st, s in zip(cert.stages, chords):
        k = len(out) + 1
        window = k * 4 ** k
        if not _less((window, 1), st._bound):
            continue
        if s is None:
            s = ChordSpectrum(n, (), window)
        else:
            if s.n != n:
                raise ValueError(f"chord spectrum has n = {s.n}, expected {n}")
            if _less(s._bound, (window, 1)):
                raise ValueError(
                    f"stage {k}: chord data only reaches action {s.bound}, "
                    f"need {window}")
            s = ChordSpectrum(n, tuple(c for c in s.chords
                                       if _less(c._action, (window, 1))),
                              window)
        s = _positive(s, zigzag_action)
        out.append(_scaled_stage(st._scale, (window, 1),
                                 orbits_after_surgery(st.spectrum, s, window),
                                 _Pair((1, 4 ** k))))

    if not out:
        raise ValueError(
            "bound condition unsatisfiable: no stage has bound > k*4^k "
            "for any k >= 1")
    result = ADCCertificate(tuple(out))
    if [st._bound for st in result.stages] != \
            [(i, 1) for i in range(1, len(out) + 1)]:
        raise AssertionError("pipeline postcondition failed: stage bounds "
                             "are not 1, 2, ...")
    _require_adc(result, AssertionError, "pipeline postcondition failed")
    return result
