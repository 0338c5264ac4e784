"""The in-process workloads: one round of operations per call to
`algebra_round` or `surgery_round`.

A round is a list of Op.  `call` is one call into a public weinkit
function; `check` takes its output and returns None, or a line saying what
is wrong.  Later ops of a round may read the outputs of earlier ones
through the shared `ctx` dict.  Every round draws fresh inputs from
Random(f"{workload}:{seed}:{round}"), so sympy's factor cache never sees a
number twice and a run's rounds average over many inputs.
"""

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import weinkit.chords as C
import weinkit.floer as FL
import weinkit.graded as G
import weinkit.handles as H
import weinkit.serialize as SER
import weinkit.surgery as S
from weinkit.models import middle_rank_family, t_star_sphere

import oracle as O


@dataclass
class Op:
    layer: str
    call: Callable
    check: Callable


def _expect(want, what):
    def check(got):
        return None if got == want else f"{what}: got {got!r}, want {want!r}"
    return check


# -- algebra -----------------------------------------------------------------

def _complex(rng, top, nmax, nmin, unit_share, steps, coeffs):
    """A conjugated chain complex in degrees 0..top whose largest chain
    group has between nmin and nmax generators."""
    while True:
        ranks = {k: rng.randint(1, max(1, nmax // 2)) for k in range(1, top + 1)}
        betti = {k: rng.randint(0, 2) for k in range(top + 1)}
        sizes = [ranks.get(k + 1, 0) + betti[k] + ranks.get(k, 0)
                 for k in range(top + 1)]
        if nmin <= max(sizes) <= nmax:
            break
    dims, maps, _, parts = O.standard_complex(rng, betti, ranks, unit_share)
    return dims, O.conjugate(rng, dims, maps, steps, coeffs), parts


def _full_rank_map(rng, n, steps, coeffs, unit_share):
    """Two-term complex Z^n -> Z^n of rank n - b (b in {0, 1})."""
    b = rng.randint(0, 1)
    dims, maps, _, parts = O.standard_complex(
        rng, {0: b, 1: b}, {1: n - b}, unit_share)
    return dims, O.conjugate(rng, dims, maps, steps, coeffs), parts


def _homology_op(dims, maps, parts):
    cx = G.ChainComplex(dims, maps)
    return Op("graded.homology", lambda: G.homology(cx),
              lambda h: _expect(parts, "homology")(h.parts))


def _presentation(rng, n):
    """A handle presentation with one 0-handle and zero d_1, and its
    homology parts by construction."""
    ranks = {k: rng.randint(0, 4) for k in range(2, n + 1)}
    betti = {k: rng.randint(0, 2) for k in range(1, n + 1)}
    betti[0] = 1
    ranks[1] = 0
    dims, maps, _, parts = O.standard_complex(rng, betti, ranks, 0.7)
    maps = O.conjugate(rng, dims, maps, 2, (-1, 1))
    handles = [k for k in sorted(dims) for _ in range(dims[k])]
    return H.HandlePresentation(n, handles, maps), parts


def _model_boundaries(rng):
    """Boundary homology of model families, from the topology of the
    boundary manifold rather than from the long exact sequence:
    #_i S^n x S^(n-1), a rational homology sphere, ST*S^n, #_i S^2 x S^3,
    and #_i (S^2 x S^4 # S^3 x S^3)."""
    ops = []
    n, i = rng.randint(3, 6), rng.randint(1, 8)
    for pairing, want in ((False, {0: 1, n - 1: i, n: i, 2 * n - 1: 1}),
                          (True, {0: 1, 2 * n - 1: 1})):
        p = middle_rank_family(n, i, euler_pairing=pairing)
        ops.append(Op("handles", lambda p=p: H.boundary_homology(p),
                      _boundary_check(want)))
    n = rng.randint(2, 7)
    want = ({0: 1, n - 1: 1, n: 1, 2 * n - 1: 1} if n % 2
            else {0: 1, 2 * n - 1: 1})
    p = t_star_sphere(n)
    ops.append(Op("handles", lambda: H.boundary_homology(p),
                  _boundary_check(want)))
    i = rng.randint(1, 9)
    chain5 = G.ChainComplex({0: 1, 2: i})
    ops.append(Op("handles",
                  lambda: H.handlebody_boundary_homology(chain5, 6),
                  _boundary_check({0: 1, 2: i, 3: i, 5: 1})))
    chain6 = G.ChainComplex({0: 1, 2: i, 3: i})
    ops.append(Op("handles",
                  lambda: H.handlebody_boundary_homology(chain6, 7),
                  _boundary_check({0: 1, 2: i, 3: 2 * i, 4: i, 6: 1})))
    return ops


def _boundary_check(want):
    def check(rep):
        if rep.undetermined:
            return f"undetermined degrees {rep.undetermined}"
        got = {k: v for k, v in rep.q_dims.items() if v}
        return None if got == want else f"boundary dims {got} != {want}"
    return check


def _form_rank_op(rng):
    """0-handle plus m n-handles with a symmetric form P diag(2.., 0..) P^T
    of known rank."""
    n, m = rng.randint(2, 6), rng.randint(2, 8)
    rank = rng.randint(0, m)
    p, _ = O.unimodular_pair(rng, m, 2 * m, (-1, 1))
    diag = [[(rng.choice((1, 2, -2)) if i == j < rank else 0)
             for j in range(m)] for i in range(m)]
    pt = [list(col) for col in zip(*p)]
    form = O.mat_mul(O.mat_mul(p, diag), pt)
    pres = H.HandlePresentation(n, [0] + [n] * m, intersection_form=form)
    return Op("handles", lambda: H.intersection_form_rank(pres),
              _expect(rank, "intersection form rank"))


def _torsion(rng, kind):
    """One torsion order as a product of known primes, by kind: small
    prime powers, times one prime of 20-32 bits ("prime"), one of 16-24
    bits ("mid"), or two of 20-23 bits ("semiprime")."""
    small = (2, 3, 5, 7, 11, 13)
    f = 1
    for _ in range(rng.randint(0, 2)):
        f *= rng.choice(small) ** rng.randint(1, 3)
    if kind == "prime":
        f *= O.random_prime(rng, rng.randint(20, 32))
    elif kind == "mid":
        f *= O.random_prime(rng, rng.randint(16, 24))
    elif kind == "semiprime":
        f *= O.random_prime(rng, rng.randint(20, 23))
        f *= O.random_prime(rng, rng.randint(20, 23))
    return max(f, 2)


def _group_spec(rng, degrees, kinds, most=3):
    return {k: (rng.randint(0, 3), [_torsion(rng, rng.choice(kinds))
                                    for _ in range(rng.randint(1, most))])
            for k in degrees}


def _merge(a, b):
    out = {}
    for spec in (a, b):
        for k, (rank, factors) in spec.items():
            r0, f0 = out.get(k, (0, []))
            out[k] = (r0 + rank, f0 + list(factors))
    return out


def _canonicalize_op(rng):
    spec = _group_spec(rng, range(rng.randint(1, 3)),
                       ("small", "small", "prime", "semiprime"))
    parts = O.graded_parts(spec)
    return Op("graded.canonicalize", lambda: G.GradedGroup.from_dict(spec),
              lambda g: _expect(parts, "canonical form")(g.parts))


def _cancel_op(rng, iso):
    """cancel_summand(g + c, g' + c, c) with g' = g when iso holds; the
    complements must come back canonical and iso must say whether they
    agree.  The canonical chains of g + c multiply their primes into the
    last factor, which cancel_summand factors again, so the big primes
    here stay at 16-24 bits."""
    kinds = ("small", "small", "mid")
    g = _group_spec(rng, range(3), kinds)
    other = g if iso else _merge(g, {rng.randint(0, 2): (0, [_torsion(rng, "small")])})
    c = _group_spec(rng, range(1, 3), kinds)
    raw = lambda spec: G.GradedGroup(O.graded_parts(spec))  # noqa: E731
    a, b, cc = raw(_merge(g, c)), raw(_merge(other, c)), raw(c)
    want = (O.graded_parts(g), O.graded_parts(other),
            O.graded_parts(g) == O.graded_parts(other))
    return Op("graded.cancel", lambda: G.cancel_summand(a, b, cc),
              lambda out: _expect(want, "cancel")(
                  (out[0].parts, out[1].parts, out[2])))


def _floer_ops(rng):
    ops = []
    n = rng.randint(3, 6)
    # middle_rank_family(n, i) has H^0 = Z and H^n = Z^i
    i, j = rng.randint(1, 6), rng.randint(1, 6)
    a = G.GradedGroup(((0, 1, ()), (n, i, ())))
    b = G.GradedGroup(((0, 1, ()), (n, j, ())))
    ops.append(Op("floer", lambda: FL.distinguish_flexible_fillings(a, b, n),
                  lambda v: _expect((i != j, n if i != j else None),
                                    "distinguish")(
                      (v.fired, (v.witness or {}).get("degree")))))
    spec = {k: (rng.randint(0, 2), [_torsion(rng, "small")
                                    for _ in range(rng.randint(0, 2))])
            for k in range(n + 1)}
    hstar = G.GradedGroup(O.graded_parts(spec))
    sh = O.graded_parts({n - k + 1: v for k, v in spec.items()})
    ops.append(Op("floer", lambda: FL.sh_plus_from_vanishing(hstar, n),
                  lambda prof: _expect(sh, "SH+ profile")(prof.group.parts)))
    wh = O.graded_parts({n - k - 1: v for k, v in spec.items()})
    ops.append(Op("floer", lambda: FL.wh_plus_from_vanishing(hstar, n),
                  lambda prof: _expect(wh, "WH+ profile")(prof.group.parts)))
    ops.append(Op("floer", lambda: FL.nearby_conclusion(hstar, hstar, True),
                  lambda v: _expect(True, "nearby")(v.fired)))
    horizon = rng.randint(3, 8)
    base = {0: 1}
    lm_dims = {k: rng.randint(1 if k == 0 else 0, 12) for k in range(horizon + 1)}
    ln_dims = {k: rng.randint(1 if k == 0 else 0, 12) for k in range(horizon + 1)}
    hy = {k: rng.randint(0, 2) for k in range(2 * n)}
    lm = FL.LoopHomologyTable(lm_dims, base, horizon)
    ln = FL.LoopHomologyTable(ln_dims, base, horizon)
    fire_at = next((k for k in range(horizon + 1)
                    if abs(lm_dims[k] - ln_dims[k])
                    > 2 * hy.get(n - k, 0) + 2 * hy.get(n - k + 1, 0)), None)
    ops.append(Op("floer",
                  lambda: FL.boundedinfinite_distinguisher(lm, ln, hy, n),
                  lambda v: _expect((fire_at is not None, fire_at),
                                    "loop distinguisher")(
                      (v.fired, (v.witness or {}).get("degree")
                       if v.fired else None))))
    support = tuple(sorted(rng.sample(range(-1, n + 4), 3)))
    bad = [k for k in support if k <= 0 or k >= n + 2]
    ops.append(Op("floer", lambda: FL.flexible_support_test(support, n),
                  lambda v: _expect(bool(bad), "support test")(v.fired)))
    return ops


def algebra_round(seed, index):
    rng = random.Random(f"algebra:{seed}:{index}")
    ops = []
    # Sizes and shapes stay where the cost of smith_normal_form has no heavy
    # tail: a full-rank 14x14 to 24x24 conjugate now and then takes 0.1 s
    # to 60 s instead of a few ms, which no run-to-run median survives.
    for _ in range(8):  # sparse, mostly unit, chain groups of 18 to 24
        ops.append(_homology_op(*_complex(rng, 5, 24, 18, 0.9, 1, (-1, 1))))
    for _ in range(4):  # mostly unit full-rank maps, 14x14 to 16x16
        ops.append(_homology_op(*_full_rank_map(
            rng, rng.randint(14, 16), 1, (-1, 1), 0.9)))
    # these two classes hold the median operation; ten of each keep it
    # inside them rather than on the edge of a neighbouring class
    for _ in range(10):  # dense full-rank maps with torsion, 8x8 to 10x10
        ops.append(_homology_op(*_full_rank_map(
            rng, rng.randint(8, 10), 2, (-1, 1), 0.6)))
    for _ in range(10):  # small complexes with torsion, 4 to 10 generators
        ops.append(_homology_op(*_complex(rng, 3, 10, 4, 0.6, 2, (-1, 1))))
    for _ in range(3):
        pres, parts = _presentation(rng, rng.randint(3, 5))
        ops.append(Op("handles", pres.homology,
                      lambda h, parts=parts: _expect(parts, "handle homology")(h.parts)))
        coh = O.cohomology_parts(parts)
        ops.append(Op("handles", lambda pres=pres: H.cohomology(pres),
                      lambda hc, parts=parts, coh=coh: _expect(
                          (parts, coh), "handle cohomology")(
                          (hc[0].parts, hc[1].parts))))
    ops += _model_boundaries(rng)
    ops += [_form_rank_op(rng) for _ in range(2)]
    ops += _floer_ops(rng)
    ops += [_canonicalize_op(rng) for _ in range(16)]
    ops += [_cancel_op(rng, iso) for iso in (True, True, False)]
    return ops


# -- surgery -----------------------------------------------------------------

ACTIONS = (Fraction(1), Fraction(5, 4), Fraction(4, 3), Fraction(3, 2),
           Fraction(5, 3), Fraction(2), Fraction(5, 2), Fraction(3))


def _crit(n):
    """Critical indices of the stabilizing manifold: S^1 for n = 3, else
    S^1 x S^(n-3) with one critical point of each index 0, 1, n-3, n-2."""
    return (0, 1) if n == 3 else (0, 1, n - 3, n - 2)


def _words_check(letters, bound, shift=None):
    """Words (or their orbits / belt chords when shift is given) against
    the Burnside count, with each word's degree and action summed over its
    letters."""
    want = O.necklace_counts(letters, bound)

    def check_words(words):
        hist, last = {}, None
        for w in words:
            if w.letters != O.least_rotation(w.letters):
                return f"word {w.letters} is not its least rotation"
            key = (len(w.letters), w.letters)
            if last is not None and key <= last:
                return "words not sorted or not distinct"
            last = key
            deg = sum(letters[c][0] for c in w.letters)
            act = sum(letters[c][1] for c in w.letters)
            if w.degree != deg or w.action != act or act >= bound:
                return f"word {w.letters}: degree/action not letter sums"
            hist[deg] = hist.get(deg, 0) + 1
        return None if hist == want else f"word counts {hist} != {want}"

    if shift is None:
        return check_words

    def check_shifted(records):
        hist = {}
        for r in records:
            hist[r.degree - shift] = hist.get(r.degree - shift, 0) + 1
        return None if hist == want else f"shifted counts {hist} != {want}"
    return check_shifted


def _alphabet(rng):
    ids = rng.sample("abcdefgh", 3)
    acts = rng.sample(ACTIONS, 3)
    return {c: (rng.randint(-2, 4), a) for c, a in zip(ids, acts)}


def _spectrum(n, letters, bound):
    return C.ChordSpectrum(n, tuple(C.ChordRecord(c, d, a)
                                    for c, (d, a) in sorted(letters.items())),
                           bound)


def _words_op(spec, letters, bound):
    return Op("surgery.words", lambda: S.enumerate_words(spec, bound),
              _words_check(letters, bound))


def _orbits_op(rng, limit):
    """orbits_after_surgery: the old orbits below the bound are kept, and
    each cyclic word w adds one orbit of degree |w| + n - 3."""
    letters, n = _alphabet(rng), rng.randint(3, 5)
    spec = _spectrum(n, letters, limit)
    bound = O.bound_for_count(letters, 1000, limit)
    old_bound = bound + rng.randint(1, 4)
    old = S.OrbitSpectrum(n, tuple(
        S.OrbitRecord(rng.randint(1, 6), old_bound * Fraction(rng.randint(1, 19), 20))
        for _ in range(rng.randint(2, 6))), old_bound)
    kept = sum(1 for r in old.orbits if r.action < bound)
    word_check = _words_check(letters, bound, shift=n - 3)

    def check(out):
        words = [r for r in out.orbits if r.origin.startswith("word:")]
        if len(out.orbits) - len(words) != kept:
            return f"kept {len(out.orbits) - len(words)} old orbits, want {kept}"
        return word_check(words)
    return Op("surgery.orbits", lambda: S.orbits_after_surgery(old, spec, bound),
              check)


def _belt_op(rng, limit):
    """belt_sphere_chords: one chord per cyclic word, degree |w| + n - 2."""
    letters, n = _alphabet(rng), rng.randint(3, 5)
    spec = _spectrum(n, letters, limit)
    bound = O.bound_for_count(letters, 1000, limit)
    word_check = _words_check(letters, bound, shift=n - 2)
    return Op("surgery.belt", lambda: S.belt_sphere_chords(spec, bound),
              lambda out: word_check(out.chords))


def _deep_ops(rng):
    ops = []
    limit = Fraction(40)
    for _ in range(3):  # growing action bounds on one alphabet
        letters = _alphabet(rng)
        spec = _spectrum(rng.randint(3, 5), letters, limit)
        for target in (250, 1000, 3000):
            ops.append(_words_op(spec, letters,
                                 O.bound_for_count(letters, target, limit)))
    ops.append(_orbits_op(rng, limit))
    ops.append(_belt_op(rng, limit))
    return ops


def _stabilize_op(rng):
    n = rng.randint(3, 5)
    bound = Fraction(rng.randint(4, 12))
    chords = [(f"c{i}", rng.randint(-4, 5),
               bound * Fraction(rng.randint(1, 19), 20))
              for i in range(rng.randint(1, 5))]
    if min(d for _, d, _ in chords) > 0:
        chords[0] = (chords[0][0], rng.randint(-4, 0), chords[0][2])
    spec = C.ChordSpectrum(n, tuple(C.ChordRecord(*c) for c in chords), bound)
    big_n = 1 - min(d for _, d, _ in chords)
    eps = min(Fraction(1), bound) / 2
    q_data = C.choose_Q(n)
    crit = _crit(n)
    return Op("chords.stabilize",
              lambda: C.stabilize(spec, big_n, q_data, eps),
              lambda out: O.stabilized_ok(
                  chords, [(c.id, c.degree, c.action) for c in out.chords],
                  big_n, crit, eps))


def _stages_of(cert):
    return [(st.scale, st.bound,
             [(r.degree, r.action, r.contractible) for r in st.spectrum.orbits])
            for st in cert.stages]


def _certificate(rng):
    """A tower of 1-3 stages with bounds just above k 4^k, and positive
    chords (or none) below the last window, as in the paper's pipeline.
    Returns (cert, chords, n, expected per output stage)."""
    n, m = rng.randint(3, 5), rng.randint(1, 3)
    stages, expected = [], []
    chords = None
    letters = {}
    if rng.random() < 0.7:
        wmax = m * 4 ** m
        letters = {f"c{i}": (rng.randint(1, 6),
                             Fraction(rng.randint(int(0.6 * wmax), 2 * wmax - 1), 2))
                   for i in range(rng.randint(1, 5))}
        chords = _spectrum(n, letters, Fraction(wmax + 1))
    for k in range(1, m + 1):
        window = k * 4 ** k
        bound = window + Fraction(rng.randint(1, 8), 2)
        orbits = tuple(S.OrbitRecord(rng.randint(1, 6),
                                     bound * Fraction(rng.randint(1, 9), 10))
                       for _ in range(rng.randint(0, 3)))
        stages.append(S.Stage(Fraction(1, 2 ** (k - 1)), bound,
                              S.OrbitSpectrum(n, orbits, bound)))
        kept = [r.degree for r in orbits if r.action < window]
        below = {c: v for c, v in letters.items() if v[1] < window}
        words = O.necklace_counts(below, window) if below else {}
        degrees = sorted(kept + [d + n - 3 for d, c in words.items()
                                 for _ in range(c)])
        expected.append((Fraction(1, 2 ** (k - 1) * 4 ** k), Fraction(k), degrees))
    return S.ADCCertificate(tuple(stages)), chords, n, expected


def _pipeline_ops(rng, tag, ctx):
    cert, chords, n, expected = _certificate(rng)
    eps = Fraction(3, 4)

    def pipeline_check(out):
        got = [(st.scale, st.bound, sorted(r.degree for r in st.spectrum.orbits))
               for st in out.stages]
        if got != expected:
            return f"pipeline stages {got} != {expected}"
        return O.positive_certificate(_stages_of(out))

    def run_pipeline():
        ctx[tag] = out = S.flexible_surgery_certificate(cert, chords, n)
        return out

    def run_normalize():
        ctx[tag + "n"] = out = S.normalize_certificate(ctx[tag], eps)
        return out

    def normalize_check(out):
        src = {(st.bound, tuple(sorted(r.degree for r in st.spectrum.orbits)))
               for st in ctx[tag].stages}
        stages = out.stages
        if len(ctx[tag].stages) >= 2 and len(stages) < 2:
            return "normalized certificate lost its stages"
        for m, st in enumerate(stages, start=1):
            degs = tuple(sorted(r.degree for r in st.spectrum.orbits))
            scale = eps ** m if len(stages) > 1 else 1
            if (st.bound / scale, degs) not in src:
                return f"stage {m} is not a rescaled input stage"
        for a, b in zip(stages, stages[1:]):
            if b.scale > eps * a.scale or b.bound < a.bound / eps:
                return "stages do not contract by eps"
        return O.positive_certificate(_stages_of(out))

    def run_to_json():
        ctx[tag + "j"] = text = SER.dumps_canonical(ctx[tag + "n"].to_json())
        return text

    def run_from_json():
        return S.ADCCertificate.from_json(json.loads(ctx[tag + "j"]))

    def round_trip_check(back):
        if back != ctx[tag + "n"]:
            return "from_json(to_json(c)) != c"
        if SER.dumps_canonical(back.to_json()) != ctx[tag + "j"]:
            return "re-serialized text differs"
        return None

    return [
        Op("surgery.pipeline", run_pipeline, pipeline_check),
        Op("surgery.adc_check", lambda: S.adc_check(ctx[tag]),
           lambda v: _expect((True, len(expected)), "adc_check")(
               (v.fired, (v.witness or {}).get("stages")))),
        Op("surgery.normalize", run_normalize, normalize_check),
        Op("serialize", run_to_json,
           lambda text: None if json.loads(text)["schema"] == 1 else "schema"),
        Op("serialize", run_from_json, round_trip_check),
    ]


def surgery_round(seed, index):
    rng = random.Random(f"surgery:{seed}:{index}")
    ctx = {}
    ops = _deep_ops(rng)
    for i in range(40):
        ops.append(_stabilize_op(rng))
        ops += _pipeline_ops(rng, f"c{i}", ctx)
    return ops


ROUNDS = {"algebra": algebra_round, "surgery": surgery_round}
