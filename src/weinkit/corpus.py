"""Named regression corpus: each entry recomputes a worked example and
compares against its known answer, returning a JSON-ready report.

The corpus is deterministic (no randomness, fixed fixtures), so its batch
report is byte-identical run to run.  One entry deliberately injects a
degree-0 orbit and asserts the convexity check fails at exactly that
record; the entry is "ok" when the failure lands where predicted.
"""

from fractions import Fraction

from .chords import choose_Q, min_positive_N, self_intersection_index, stabilize
from .floer import (
    LoopHomologyTable,
    boundedinfinite_distinguisher,
    cem_flexible_obstruction,
    distinguish_flexible_fillings,
    flexible_support_test,
    nearby_conclusion,
    sh_plus_from_vanishing,
)
from .handles import boundary_connect_sum, boundary_homology
from .models import (
    degree_zero_orbit_fixture,
    empty_certificate,
    mixed_sign_spectrum,
    sample_certificate,
    t_star_sphere,
    two_letter_table,
    wedge_spheres_boundary,
    wedge_thickening,
)
from .surgery import (
    adc_check,
    belt_sphere_chords,
    enumerate_words,
    flexible_surgery_certificate,
    subcritical_surgery,
    OrbitSpectrum,
)
from .scaling import bound_ratio, build_g, conformal_bound, verify_h_family


def _entry(description, expected, got):
    return {"description": description, "expected": expected, "got": got,
            "ok": expected == got}


def _report(name, formula, checks):
    return {"name": name, "formula": formula, "checks": checks,
            "ok": all(c["ok"] for c in checks)}


def wedge_family(i=7, **_):
    """dim H_2 of the wedge-of-spheres boundary is i; its semicharacteristic
    has parity 1 + i."""
    _, rep = wedge_spheres_boundary(i)
    # H_2(Y) = H^{dim Y - 2}(Y) by duality; dim Y = 5, so read H^3
    checks = [
        _entry("dim H_2(M_i; Q) = i", i, rep.dim(3)),
        _entry("semicharacteristic parity", (1 + i) % 2, rep.semi_characteristic()),
        _entry("boundary euler characteristic", 0, rep.euler),
    ]
    return _report("wedge-family",
                   "H_j(Y) of the thickened wedge boundary; chi_1/2 parity",
                   checks)


def thickening_family(i=7, **_):
    """The (S^2 v S^3)-wedge thickening: dim H_2 = i, chi(W) = 1,
    chi(boundary) = 2."""
    chain, rep = wedge_thickening(i)
    h2 = chain.dims.get(2, 0)
    chi_w = sum((-1) ** k * v for k, v in chain.dims.items())
    return _report("thickening-family",
                   "handle counts give H_*(W); chi(Y) = 2 chi(W) in odd "
                   "boundary dimension",
                   [_entry("dim H_2(W_i) = i", i, h2),
                    _entry("chi(W_i) = 1", 1, chi_w),
                    _entry("chi(boundary) = 2", 2, rep.euler)])


def words_table(**_):
    """The two-letter alphabet below action 4: seven cyclic classes."""
    words = enumerate_words(two_letter_table(), 4)
    got = {w.label(): w.degree for w in words}
    want = {"a": 1, "a.a": 2, "a.a.a": 3, "b": 2, "b.b": 4, "a.b": 3,
            "a.a.b": 4}
    return _report("words-table",
                   "cyclic words with total action < bound, one class per "
                   "rotation",
                   [_entry("word class count", 7, len(words)),
                    _entry("degree table", want, got)])


def stabilize_positivity(**_):
    """Canonical stabilization makes every degree positive: old >= N+1,
    new >= 1."""
    s = mixed_sign_spectrum()
    n_shift = min_positive_N(s)
    out = stabilize(s, n_shift, choose_Q(s.n), Fraction(1, 2))
    old_ids = {c.id for c in s.chords}
    old_min = min(c.degree for c in out.chords if c.id in old_ids)
    new_min = min(c.degree for c in out.chords if c.id not in old_ids)
    return _report("stabilize-positivity",
                   "degrees shift by 2N; zig-zag chords enter at 1 + index",
                   [_entry("N = 1 - min degree", 3, n_shift),
                    _entry("old degrees >= N + 1", True, old_min >= n_shift + 1),
                    _entry("new degrees >= 1", True, new_min >= 1)])


def flexible_pipeline(**_):
    """Three-stage tower through the critical-surgery pipeline: output
    bounds exactly 1, 2, 3 and the convexity check passes."""
    out = flexible_surgery_certificate(sample_certificate(3, 3), None, 3)
    verdict = adc_check(out)
    return _report("flexible-pipeline",
                   "window to k*4^k, adjoin word orbits, rescale by 4^-k",
                   [_entry("output bounds", ["1", "2", "3"],
                           [str(st.bound) for st in out.stages]),
                    _entry("convexity check passes", True, verdict.fired)])


def subcritical_degrees(**_):
    """Belt iterate degrees 2n - k - 4 + 2j, all positive; n = 3, k = 1
    gives 3, 5, 7."""
    out = subcritical_surgery(OrbitSpectrum(3, (), Fraction(10)), 3, 1, 3,
                              Fraction(1, 2))
    all_pos = all(2 * n - k - 4 + 2 * j > 0
                  for n in range(2, 13) for k in range(1, n)
                  for j in range(1, 21))
    return _report("subcritical-degrees",
                   "iterate j of the belt orbit has degree 2n - k - 4 + 2j",
                   [_entry("n=3 k=1 degrees", [3, 5, 7],
                           [r.degree for r in out.orbits]),
                    _entry("positivity over 2<=n<=12", True, all_pos)])


def belt_chords(**_):
    """Belt-sphere chords after critical surgery on one letter: degrees
    |w| + n - 2 give {2, 3} below action 5/2."""
    from .chords import ChordRecord, ChordSpectrum
    s = ChordSpectrum(3, (ChordRecord("c", 1, Fraction(1)),), Fraction(5, 2))
    out = belt_sphere_chords(s)
    return _report("belt-chords",
                   "one chord per cyclic word, degree |w| + n - 2",
                   [_entry("degrees", [2, 3], [c.degree for c in out.chords])])


def connect_sum_growth(**_):
    """Boundary connect sums of T*S^3: middle cohomology rank grows by one
    each time, and the positive-symplectic-homology profiles separate."""
    tower = [t_star_sphere(3)]
    for _ in range(3):
        tower.append(boundary_connect_sum(tower[-1], t_star_sphere(3)))
    groups = [p.cohomology() for p in tower]
    ranks = [h.rank(3) for h in groups]
    profiles = [sh_plus_from_vanishing(h, 3) for h in groups]
    separated = all(distinguish_flexible_fillings(g, h, 3).fired
                    for g in groups for h in groups if g is not h)
    return _report("connect-sum-growth",
                   "rank H^n adds under boundary connect sum; profiles with "
                   "different rank are distinguished",
                   [_entry("middle ranks", [1, 2, 3, 4], ranks),
                    _entry("profile dims at k = 1", [1, 2, 3, 4],
                           [p.dim(1) for p in profiles]),
                    _entry("all pairs separated", True, separated)])


def cem_window(**_):
    """The flexible-filling obstruction fires exactly at k >= dim + 2."""
    got = {(k, d): cem_flexible_obstruction(k, d)
           for d in range(0, 4) for k in range(1, 8)}
    want = {(k, d): k >= d + 2 for d in range(0, 4) for k in range(1, 8)}
    return _report("cem-window",
                   "nonvanishing at k >= dim H^1(Y; Z/2) + 2 obstructs "
                   "flexible fillings",
                   [_entry("firing table", _keystr(want), _keystr(got))])


def support_test(**_):
    """Support outside [1, n+1] is incompatible with a flexible filling."""
    fires = flexible_support_test((1, 6), 4)
    clean = flexible_support_test((1, 4), 4)
    return _report("support-test",
                   "flexible Weinstein domains have support inside [1, n+1]",
                   [_entry("k = n + 2 rejected", True, fires.fired),
                    _entry("witness degree", 6, fires.witness["degree"]),
                    _entry("window accepted", False, clean.fired)])


def self_index_vanishing(**_):
    """The canonical stabilizing manifolds have vanishing self-intersection
    index for every N."""
    vals = [self_intersection_index(n, nn, choose_Q(n)).value
            for n in range(3, 9) for nn in range(0, 6)]
    return _report("self-index-vanishing",
                   "index = (-1)^{(n-1)(n-2)/2} N chi(Q); chi(Q) = 0 here",
                   [_entry("all zero", True, all(v == 0 for v in vals))])


def adc_empty(**_):
    """The empty certificate is vacuously convex."""
    verdict = adc_check(empty_certificate())
    return _report("adc-empty", "no stages, no violations",
                   [_entry("vacuous pass", True, verdict.fired)])


def injected_degree_zero(**_):
    """A certificate with a planted degree-0 orbit must fail at exactly
    that record."""
    verdict = adc_check(degree_zero_orbit_fixture())
    w = verdict.witness or {}
    return _report("injected-degree-zero",
                   "first nonpositive contractible orbit is reported",
                   [_entry("check fails", False, verdict.fired),
                    _entry("failure stage", 1, w.get("stage")),
                    _entry("failure record", 1, w.get("record")),
                    _entry("failure violation", "nonpositive contractible orbit",
                           w.get("violation"))])


def loops_growth(**_):
    """Loop homology tables with a gap exceeding twice the boundary
    cohomology are separated."""
    lm = LoopHomologyTable({0: 1, 2: 12}, {0: 1}, horizon=4)
    ln = LoopHomologyTable({0: 1, 2: 2}, {0: 1}, horizon=4)
    hy = {k: 0 for k in range(0, 8)}
    verdict = boundedinfinite_distinguisher(lm, ln, hy, 4)
    return _report("loops-growth",
                   "|dim gap| beyond 2 H^{n-k} + 2 H^{n-k+1} separates "
                   "fillings",
                   [_entry("fires", True, verdict.fired),
                    _entry("witness degree", 2, (verdict.witness or {}).get("degree"))])


def nearby_iso(**_):
    """Equal homology plus degree +-1 projection forces an isomorphism."""
    _, rep = wedge_spheres_boundary(3)
    g = rep.graded_q()
    verdict = nearby_conclusion(g, g, True)
    return _report("nearby-iso", "degree +-1 projection with equal homology",
                   [_entry("isomorphism concluded", True, verdict.fired)])


def scaling_bounds(**_):
    """Profile ratio, integral residual, conformal factor, and the family
    identities, from the exact certificate."""
    profile = build_g()
    ratio = bound_ratio(profile)
    conf = conformal_bound()
    fam = verify_h_family(profile)
    return _report("scaling-bounds",
                   "g/(t g + 1) <= 5/4; |int g| ~ 0; e^{5/4} < 4; family "
                   "identities on the grid",
                   [_entry("ratio capped", True, ratio.holds),
                    _entry("integral residual < 1e-8", True,
                           abs(profile.integral_residual()) < 1e-8),
                    _entry("conformal bound holds", True, conf.holds),
                    _entry("family identities", True, fam.ok)])


def _keystr(d):
    return {f"{k}": v for k, v in sorted(d.items())}


CORPUS = {
    "wedge-family": wedge_family,
    "thickening-family": thickening_family,
    "words-table": words_table,
    "stabilize-positivity": stabilize_positivity,
    "flexible-pipeline": flexible_pipeline,
    "subcritical-degrees": subcritical_degrees,
    "belt-chords": belt_chords,
    "connect-sum-growth": connect_sum_growth,
    "cem-window": cem_window,
    "support-test": support_test,
    "self-index-vanishing": self_index_vanishing,
    "adc-empty": adc_empty,
    "injected-degree-zero": injected_degree_zero,
    "loops-growth": loops_growth,
    "nearby-iso": nearby_iso,
    "scaling-bounds": scaling_bounds,
}


def run_example(name, **options):
    if name not in CORPUS:
        raise ValueError(f"unknown example {name!r}; known: "
                         f"{', '.join(sorted(CORPUS))}")
    return CORPUS[name](**options)


def examples_corpus(names=None, **options):
    """Run the whole corpus (or a subset) and aggregate one batch report."""
    results = [run_example(name, **options) for name in (names or CORPUS)]
    return {
        "schema": 1,
        "command": "examples",
        "results": results,
        "ok": all(r["ok"] for r in results),
    }
