"""Cyclic-word enumeration over chord alphabets, orbit spectra of surgered
contact manifolds, and ADC certificates with their transformations.

Contact forms are modeled by positive scale factors relative to stage 1:
every check performed here (monotonicity, rescaling transport, the 4^k
bookkeeping) factors through scales and per-step bound constants.  Actions
are exact rationals throughout; nothing is compared in floating point.

Words come from one level-order walk, _walk, cyclic or linear.  Its
invariant: each level (word length) is in letter order, so words come out
in (length, letters) order with no sort, each cyclic word below the bound
once, as its least rotation.  enumerate_words, orbits_after_surgery and
belt_sphere_chords build their records from its columns without the
per-record checks of the public constructors; CyclicWord(...) built by a
caller still canonicalizes its letters.  A name spelled from letters
(orbit origin "word:a.b", belt chord "w:a.b", mixed chord "mix:x.a.b.y")
is built by _labels, and two words with one name are an error; a
generated name ("zz<t>" in stabilize, "surg" in add_surgery_chord) takes
"_" appended until it is fresh.
"""

from collections import Counter
from fractions import Fraction
from itertools import compress, repeat
from math import lcm

from .chords import ChordRecord, ChordSpectrum, _fresh_id, _trusted, choose_Q, min_positive_N, stabilize
from .serialize import (
    BOOL,
    INT,
    RATIONAL,
    STRING,
    Record,
    Verdict,
    as_int,
    frac_to_str,
    optional,
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
    __slots__ = ("letters", "degree", "action")

    def __init__(self, letters, degree, action):
        if type(action) is not Fraction:
            action = Fraction(action)
        Record.__init__(self, canonical_rotation(letters), degree, action)

    def __len__(self):
        return len(self.letters)

    def label(self):
        return ".".join(self.letters)


def enumerate_words(spectrum: ChordSpectrum, bound,
                    skip_non_null_homotopic=False):
    """All cyclic words over the chord alphabet with total action < bound,
    each once, as its least rotation, sorted by (length, letters).

    Non-null-homotopic chords carry no canonical grading, so their presence
    is an error unless skip_non_null_homotopic drops them instead.
    Termination is guaranteed by positivity of actions.
    """
    letters, degrees, actions = _cyclic_words(spectrum, bound, 0,
                                              skip_non_null_homotopic)
    return tuple(_trusted(CyclicWord, len(letters), letters=letters,
                          degree=degrees, action=actions))


def _cyclic_words(spectrum, bound, shift, skip_non_null_homotopic=False):
    """_walk over the null-homotopic chords, as enumerate_words reads it."""
    bound = Fraction(bound)
    if bound <= 0:
        raise ValueError(f"word action bound must be positive, got {bound}")
    alphabet = [c for c in spectrum.chords if c.null_homotopic]
    if len(alphabet) < len(spectrum.chords) and not skip_non_null_homotopic:
        c = next(c for c in spectrum.chords if not c.null_homotopic)
        raise ValueError(
            f"chord {c.id!r} is not null-homotopic and has no canonical "
            "grading (pass skip_non_null_homotopic to drop such chords)")
    return _walk(alphabet, bound, shift, True)


def _walk(chords, bound, shift, cyclic, base=Fraction(0)):
    """Words over chords with action + base < bound in (length, letters)
    order, as columns: letter tuples, degrees + shift, actions + base.
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
    fractions = {num: Fraction(num, den) for num in set(nums)}
    return words, degrees, list(map(fractions.__getitem__, nums))


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
    numerators of the further actions, and their one common denominator:
    sums and comparisons of actions become int operations."""
    den = lcm(*(a.denominator for a in actions),
              *(c.action.denominator for c in chords))

    def num(a):
        return a.numerator * (den // a.denominator)
    letters = [(num(c.action), c.id, c.degree)
               for c in sorted(chords, key=lambda c: c.id)]
    return letters, [num(a) for a in actions], den


class OrbitRecord(Record):
    """One closed orbit: degree, positive rational action, provenance
    (pre-existing, a chord word, or a belt-sphere iterate), and whether it
    is contractible.  Non-contractible orbits have no canonical degree and
    are skipped by positivity checks."""
    __slots__ = ("degree", "action", "origin", "contractible")
    _codecs = {"degree": INT, "action": RATIONAL,
               "origin": optional(STRING, "old"),
               "contractible": optional(BOOL, True)}
    _schema = False

    def __init__(self, degree, action, origin="old", contractible=True):
        if type(degree) is not int:
            degree = as_int(degree, "orbit degree")
        if type(action) is not Fraction:
            action = Fraction(action)
        if action.numerator <= 0:
            raise ValueError("orbit action must be positive")
        if not isinstance(origin, str):
            raise ValueError(f"orbit origin must be a string, got {origin!r}")
        if not (origin == "old"
                or (origin.startswith("word:") and len(origin) > 5)):
            if not origin.startswith("belt:"):
                raise ValueError(f"bad origin {origin!r}: use 'old', "
                                 "'word:<ids>', 'belt:<j>'")
            try:
                j = int(origin[5:])
            except ValueError:
                j = 0
            if j < 1:
                raise ValueError(
                    f"belt origin needs iterate >= 1, got {origin!r}")
        Record.__init__(self, degree, action, origin, contractible)


class OrbitSpectrum(Record):
    """All closed orbits with action below the bound; finite by genericity,
    which is a caller assertion carried as the generic flag."""
    __slots__ = ("n", "orbits", "bound", "generic")
    _codecs = {"n": INT, "bound": RATIONAL, "generic": optional(BOOL, True),
               "orbits": records_of(OrbitRecord)}

    def __init__(self, n, orbits, bound, generic=True):
        n = as_int(n, "half-dimension")
        if n < 1:
            raise ValueError(f"half-dimension must be >= 1, got {n}")
        orbits = tuple(orbits)
        if type(bound) is not Fraction:
            bound = Fraction(bound)
        if bound.numerator <= 0:
            raise ValueError("action bound must be positive")
        bn, bd = bound.numerator, bound.denominator
        for r in orbits:
            if r.action.numerator * bd >= bn * r.action.denominator:
                raise ValueError(f"orbit action {r.action} >= bound {bound}")
        Record.__init__(self, n, orbits, bound, generic)


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
    bound = Fraction(bound)
    if bound > old.bound:
        raise ValueError(
            f"requested bound {bound} exceeds the known orbit window {old.bound}")
    kept = [r for r in old.orbits if r.action < bound]
    words, degrees, actions = _cyclic_words(chords, bound, n - 3)
    # every action is below the bound, so neither the records nor the
    # spectrum are checked again
    kept += _trusted(OrbitRecord, len(words), degree=degrees, action=actions,
                     origin=_labels("word:", words, "orbit origin"),
                     contractible=repeat(True))
    [out] = _trusted(OrbitSpectrum, 1, n=[n], orbits=[tuple(kept)],
                     bound=[bound], generic=[old.generic])
    return out


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
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("handle-shrinking parameter must be positive")
    if eps * iterates >= spectrum.bound:
        raise ValueError(
            f"eps * iterates = {eps * iterates} >= bound {spectrum.bound}; "
            "shrink the handle further")
    new = [OrbitRecord(2 * n - k - 4 + 2 * j, eps * j, f"belt:{j}", True)
           for j in range(1, iterates + 1)]
    return OrbitSpectrum(spectrum.n, spectrum.orbits + tuple(new),
                         spectrum.bound, spectrum.generic)


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
    action = Fraction(new_action) if new_action is not None \
        else spectrum.bound / 1000
    if not 0 < action < spectrum.bound:
        raise ValueError(f"new chord action must lie in (0, {spectrum.bound})")
    cid = _fresh_id("surg", {c.id for c in spectrum.chords})
    new = ChordRecord(cid, n - k - 1, action)
    return ChordSpectrum(n, spectrum.chords + (new,), spectrum.bound)


def belt_sphere_chords(spectrum: ChordSpectrum, bound=None) -> ChordSpectrum:
    """Chords of the belt sphere after critical surgery along the alphabet's
    Legendrian: one chord per cyclic word w, graded |w| + n - 2."""
    n = spectrum.n
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    bound = Fraction(bound) if bound is not None else spectrum.bound
    if bound > spectrum.bound:
        raise ValueError(
            f"requested bound {bound} exceeds the known chord window "
            f"{spectrum.bound}")
    words, degrees, actions = _cyclic_words(spectrum, bound, n - 2)
    # every action is below the bound and _labels keeps the ids distinct
    chords = tuple(_trusted(
        ChordRecord, len(words), id=_labels("w:", words, "chord id"),
        degree=degrees, action=actions, front=repeat(None),
        null_homotopic=repeat(True)))
    [out] = _trusted(ChordSpectrum, 1, n=[n], chords=[chords], bound=[bound])
    return out


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

    bound = s_minus.bound
    base_action = connector_in.action + connector_out.action
    base_degree = connector_in.degree + connector_out.degree
    middles, degrees, actions = _walk(aux.chords, bound, base_degree, False,
                                      base_action)
    null = connector_in.null_homotopic and connector_out.null_homotopic
    ids = _labels("mix:", [(connector_in.id,) + seq + (connector_out.id,)
                           for seq in middles], "chord id")
    # a clash with an id of s_minus is raised by the checked spectrum
    out = s_minus.chords + tuple(map(ChordRecord, ids, degrees, actions,
                                     repeat(None), repeat(null)))
    return ChordSpectrum(n, out, bound)


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
    s = Fraction(s)
    if s <= 0:
        raise ValueError(f"scale must be positive, got {s}")
    if isinstance(x, ChordSpectrum):
        return ChordSpectrum(
            x.n,
            tuple(ChordRecord(c.id, c.degree, c.action * s, c.front,
                              c.null_homotopic) for c in x.chords),
            x.bound * s)
    if isinstance(x, OrbitSpectrum):
        return OrbitSpectrum(
            x.n,
            tuple(OrbitRecord(r.degree, r.action * s, r.origin, r.contractible)
                  for r in x.orbits),
            x.bound * s, x.generic)
    raise TypeError(f"cannot rescale {type(x).__name__}")


class Stage(Record):
    """One stage of a certificate: a contact form (as a scale relative to
    stage 1), its action bound, and the orbit spectrum below that bound."""
    __slots__ = ("scale", "bound", "spectrum")
    _codecs = {"scale": RATIONAL, "bound": RATIONAL,
               "spectrum": record_of(OrbitSpectrum)}
    _schema = False

    def __init__(self, scale, bound, spectrum):
        if type(scale) is not Fraction:
            scale = Fraction(scale)
        if type(bound) is not Fraction:
            bound = Fraction(bound)
        if scale.numerator <= 0:
            raise ValueError("stage scale must be positive")
        if bound != spectrum.bound:
            raise ValueError(
                f"stage bound {bound} != spectrum bound {spectrum.bound}")
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
            if st.scale > prev.scale:
                return Verdict("ADC certificate invalid", False, witness={
                    "stage": idx, "violation": "scale increased",
                    "scale": frac_to_str(st.scale),
                    "previous": frac_to_str(prev.scale)})
            if st.bound <= prev.bound:
                return Verdict("ADC certificate invalid", False, witness={
                    "stage": idx, "violation": "bound not strictly increasing",
                    "bound": frac_to_str(st.bound),
                    "previous": frac_to_str(prev.bound)})
        for ridx, r in enumerate(st.spectrum.orbits):
            if r.contractible and r.degree <= 0:
                return Verdict("ADC certificate invalid", False, witness={
                    "stage": idx, "violation": "nonpositive contractible orbit",
                    "record": ridx, "degree": r.degree,
                    "action": frac_to_str(r.action), "origin": r.origin})
        prev = st
    return Verdict("ADC certificate valid", True,
                   witness={"stages": len(cert.stages)})


def _require_adc(cert, error, prefix):
    """Raise error("<prefix>: <witness>") unless adc_check passes cert."""
    verdict = adc_check(cert)
    if not verdict.fired:
        raise error(f"{prefix}: {verdict.witness}")


def normalize_certificate(cert: ADCCertificate, eps) -> ADCCertificate:
    """Sharpen a valid certificate so consecutive scales drop by a factor
    eps and consecutive bounds grow by 1/eps: greedily take a subsequence
    with D_{next} >= D_current / eps^2, then multiply stage m by eps^m.

    Single-stage certificates are returned unchanged.
    """
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError(f"need 0 < eps < 1, got {eps}")
    _require_adc(cert, ValueError, "input certificate fails")
    if len(cert.stages) <= 1:
        return cert
    chosen = [0]
    need = cert.stages[0].bound / (eps * eps)
    for j in range(1, len(cert.stages)):
        if cert.stages[j].bound >= need:
            chosen.append(j)
            need = cert.stages[j].bound / (eps * eps)
    if len(chosen) < 2:
        raise ValueError(
            "certificate too short: no later stage has bound >= "
            f"{need} = D_1 / eps^2")
    out = []
    for m, j in enumerate(chosen, start=1):
        st = cert.stages[j]
        factor = eps ** m
        out.append(Stage(st.scale * factor, st.bound * factor,
                         rescale(st.spectrum, factor)))
    result = ADCCertificate(tuple(out))
    for a, b in zip(result.stages, result.stages[1:]):
        if b.scale > eps * a.scale or b.bound < a.bound / eps:
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
    next_input = 0
    k = 0
    while True:
        k += 1
        window = Fraction(k * 4 ** k)
        while (next_input < len(cert.stages)
               and cert.stages[next_input].bound <= window):
            next_input += 1
        if next_input >= len(cert.stages):
            break
        st = cert.stages[next_input]
        s = chords[next_input]
        next_input += 1

        if s is None:
            s = ChordSpectrum(n, (), window)
        else:
            if s.n != n:
                raise ValueError(f"chord spectrum has n = {s.n}, expected {n}")
            if s.bound < window:
                raise ValueError(
                    f"stage {k}: chord data only reaches action {s.bound}, "
                    f"need {window}")
            s = ChordSpectrum(n, tuple(c for c in s.chords if c.action < window),
                              window)
        s = _positive(s, zigzag_action)

        merged = orbits_after_surgery(st.spectrum, s, window)
        factor = Fraction(1, 4 ** k)
        out.append(Stage(st.scale * factor, window * factor,
                         rescale(merged, factor)))

    if not out:
        raise ValueError(
            "bound condition unsatisfiable: no stage has bound > k*4^k "
            "for any k >= 1")
    result = ADCCertificate(tuple(out))
    if [st.bound for st in result.stages] != \
            [Fraction(i) for i in range(1, len(out) + 1)]:
        raise AssertionError("pipeline postcondition failed: stage bounds "
                             "are not 1, 2, ...")
    _require_adc(result, AssertionError, "pipeline postcondition failed")
    return result
