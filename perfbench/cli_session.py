"""The cli-session workload: one call of every `weinkit` command on seeded
input files, with the answer each report must carry.

Nothing here imports weinkit: input files are written in the documented
JSON schemas, and every answer comes from `oracle` or from the topology of
the model it describes.
"""

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle as O


@dataclass
class CliOp:
    args: list
    code: int          # expected exit code
    check: Callable    # parsed report -> None or a problem


def _q(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _group_doc(parts):
    return {"schema": 1, "graded_group": {
        str(deg): {"rank": rank, "torsion": [str(f) for f in chain]}
        for deg, rank, chain in parts}}


def _presentation_doc(n, dims, maps, form=None):
    handles = [{"index": k, "label": f"h{k}.{i}"}
               for k in sorted(dims) for i in range(dims[k])]
    doc = {"schema": 1, "n": n, "handles": handles,
           "boundary_matrices": {str(k): [[str(x) for x in row] for row in m]
                                 for k, m in sorted(maps.items())}}
    if form is not None:
        doc["intersection_form"] = [[str(x) for x in row] for row in form]
    return doc


def _spectrum_doc(n, letters, bound):
    return {"schema": 1, "n": n, "bound": _q(bound), "chords": [
        {"id": c, "degree": d, "action": _q(a), "front": None,
         "null_homotopic": True} for c, (d, a) in sorted(letters.items())]}


def _orbits_doc(n, orbits, bound):
    return {"schema": 1, "n": n, "bound": _q(bound), "generic": True,
            "orbits": [{"degree": d, "action": _q(a), "origin": "old",
                        "contractible": True} for d, a in orbits]}


def _cert_doc(n, stages):
    return {"schema": 1, "stages": [
        {"scale": _q(scale), "bound": _q(bound),
         "spectrum": _orbits_doc(n, orbits, bound)}
        for scale, bound, orbits in stages]}


def _read_stages(doc):
    return [(Fraction(st["scale"]), Fraction(st["bound"]),
             [(o["degree"], Fraction(o["action"]), o["contractible"])
              for o in st["spectrum"]["orbits"]])
            for st in doc["stages"]]


def _expect(want, pick):
    def check(report):
        got = pick(report)
        return None if got == want else f"got {got!r}, want {want!r}"
    return check


def _nonzero(d):
    return {int(k): v for k, v in d.items() if v}


def _words_check(letters, bound, n=None):
    """Word rows (or belt chords when n is given) against the Burnside
    count, each row's degree and action summed over its letters."""
    want = O.necklace_counts(letters, bound)

    def check(report):
        if n is None:
            rows = [(r["word"].split("."), r["degree"], Fraction(r["action"]))
                    for r in report["result"]]
            if report["count"] != len(rows):
                return "count disagrees with rows"
            shift = 0
        else:
            rows = [(c["id"][2:].split("."), c["degree"], Fraction(c["action"]))
                    for c in report["result"]["chords"]]
            shift = n - 2
        hist = {}
        for word, deg, act in rows:
            if tuple(word) != O.least_rotation(word):
                return f"word {word} is not its least rotation"
            if (deg - shift != sum(letters[c][0] for c in word)
                    or act != sum(letters[c][1] for c in word) or act >= bound):
                return f"word {word}: degree/action not letter sums"
            hist[deg - shift] = hist.get(deg - shift, 0) + 1
        return None if hist == want else f"counts {hist} != {want}"
    return check


def build(rng_seed, directory):
    """Write the input files into `directory`; return the list of calls."""
    rng = random.Random(f"cli-session:{rng_seed}")

    def write(name, doc):
        path = os.path.join(directory, name)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return name

    ops = []

    # homology of a handle presentation known by construction
    n = rng.randint(3, 5)
    ranks = {k: rng.randint(0, 4) for k in range(2, n + 1)}
    ranks[1] = 0
    betti = {k: rng.randint(0, 2) for k in range(1, n + 1)}
    betti[0] = 1
    dims, maps, _, parts = O.standard_complex(rng, betti, ranks, 0.6)
    maps = O.conjugate(rng, dims, maps, 2, (-1, 1))
    pres = write("pres.json", _presentation_doc(n, dims, maps))
    ops.append(CliOp(["homology", pres, "--coeff", "Z"], 0, _expect(
        _group_doc(parts)["graded_group"], lambda r: r["result"])))

    # boundary of 0-handle + i n-handles with zero form: #_i S^n x S^(n-1)
    n, i = rng.randint(3, 6), rng.randint(1, 8)
    zero = [[0] * i for _ in range(i)]
    mrf = write("mrf.json", _presentation_doc(n, {0: 1, n: i}, {}, zero))
    ops.append(CliOp(["boundary", mrf], 0, _expect(
        ({0: 1, n - 1: i, n: i, 2 * n - 1: 1}, []),
        lambda r: (_nonzero(r["result"]["q_dims"]), r["result"]["undetermined"]))))

    # rank of a symmetric form P diag P^T of known rank
    n, m = rng.randint(2, 6), rng.randint(2, 8)
    rank = rng.randint(0, m)
    p, _ = O.unimodular_pair(rng, m, 2 * m, (-1, 1))
    diag = [[(2 if i == j < rank else 0) for j in range(m)] for i in range(m)]
    form = O.mat_mul(O.mat_mul(p, diag), [list(c) for c in zip(*p)])
    formf = write("form.json", _presentation_doc(n, {0: 1, n: m}, {}, form))
    ops.append(CliOp(["rank-form", formf], 0,
                     _expect(rank, lambda r: r["result"])))

    # #_i S^2 x S^3 is in the class iff its semicharacteristic 1 + i is odd
    i = rng.randint(1, 9)
    wedge = write("wedge.json", _group_doc(((0, 1, ()), (2, i, ()), (3, i, ()),
                                            (5, 1, ()))))
    member = (1 + i) % 2 == 1
    ops.append(CliOp(["omega-check", wedge, "--n", "5", "--closed",
                      "--simply-connected", "--stably-parallelizable"],
                     0 if member else 1,
                     _expect(member, lambda r: r["result"]["member"])))

    # SH+_k = H^{n-k+1}, WH+_k = H^{n-k-1} on a group supported in [0, n]
    n = rng.randint(3, 6)
    spec = {k: (rng.randint(0, 2), [rng.choice((2, 3, 4, 6, 12))
                                    for _ in range(rng.randint(0, 2))])
            for k in range(n + 1)}
    hstar = write("hstar.json", _group_doc(O.graded_parts(spec)))
    sh = _group_doc(O.graded_parts({n - k + 1: v for k, v in spec.items()}))
    ops.append(CliOp(["sh-plus", hstar, "--n", str(n)], 0, _expect(
        sh["graded_group"], lambda r: r["result"]["profile"])))
    wh = _group_doc(O.graded_parts({n - k - 1: v for k, v in spec.items()}))
    ops.append(CliOp(["wh-plus", hstar, "--n", str(n)], 0, _expect(
        wh["graded_group"], lambda r: r["result"]["profile"])))

    # H^*(middle_rank_family(n, i)) for two distinct i
    n = rng.randint(3, 6)
    i, j = rng.sample(range(1, 8), 2)
    ga = write("ga.json", _group_doc(((0, 1, ()), (n, i, ()))))
    gb = write("gb.json", _group_doc(((0, 1, ()), (n, j, ()))))
    ops.append(CliOp(["distinguish", ga, gb, "--n", str(n)], 0, _expect(
        (True, n), lambda r: (r["result"]["fired"], r["result"]["witness"]["degree"]))))

    k, d = rng.randint(1, 9), rng.randint(0, 6)
    fires = k >= d + 2
    ops.append(CliOp(["cem-bound", "--k", str(k), "--dim", str(d)],
                     0 if fires else 1,
                     _expect({"fires": fires, "threshold": d + 2},
                             lambda r: r["result"])))

    # loop-space growth beyond twice the boundary cohomology
    n, horizon = 4, rng.randint(3, 8)
    lm = {k: rng.randint(1 if k == 0 else 0, 12) for k in range(horizon + 1)}
    ln = {k: rng.randint(1 if k == 0 else 0, 12) for k in range(horizon + 1)}
    hy = {k: rng.randint(0, 2) for k in range(2 * n)}
    table = lambda dims: {"schema": 1, "dims": {str(k): v for k, v in dims.items()},  # noqa: E731
                          "base": {"0": 1}, "horizon": horizon}
    fire_at = next((k for k in range(horizon + 1) if abs(lm[k] - ln[k])
                    > 2 * hy.get(n - k, 0) + 2 * hy.get(n - k + 1, 0)), None)
    args = ["loops-distinguish", write("lm.json", table(lm)),
            write("ln.json", table(ln)),
            write("hy.json", _group_doc(O.graded_parts(
                {k: (v, ()) for k, v in hy.items()}))), "--n", str(n)]
    ops.append(CliOp(args, 0 if fire_at is not None else 1, _expect(
        fire_at, lambda r: r["result"]["witness"].get("degree")
        if r["result"]["fired"] else None)))

    ops.append(CliOp(["nearby", hstar, hstar], 0,
                     _expect(True, lambda r: r["result"]["fired"])))

    down, up, ind = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
    ops.append(CliOp(["chord-degree", "--down", str(down), "--up", str(up),
                      "--ind", str(ind)], 0,
                     _expect(down - up + ind - 1, lambda r: r["result"])))

    # stabilization of a spectrum with non-positive degrees
    n, bound = rng.randint(3, 5), Fraction(rng.randint(4, 12))
    chords = {f"c{i}": (rng.randint(-4, 5), bound * Fraction(rng.randint(1, 19), 20))
              for i in range(rng.randint(2, 6))}
    chords["c0"] = (rng.randint(-4, 0), chords["c0"][1])
    big_n = 1 - min(d for d, _ in chords.values())
    eps = min(Fraction(1), bound) / 2
    crit = (0, 1) if n == 3 else (0, 1, n - 3, n - 2)
    old = [(c, d, a) for c, (d, a) in chords.items()]

    def stabilize_check(r, old=old, big_n=big_n, crit=crit, eps=eps):
        if r["N"] != big_n:
            return f"N = {r['N']}, want {big_n}"
        new = [(c["id"], c["degree"], Fraction(c["action"]))
               for c in r["result"]["chords"]]
        return O.stabilized_ok(old, new, big_n, crit, eps)
    ops.append(CliOp(["stabilize", write("stab.json", _spectrum_doc(n, chords, bound))],
                     0, stabilize_check))

    n, big = rng.randint(3, 9), rng.randint(0, 9)
    ops.append(CliOp(["self-index", "--n", str(n), "--big-n", str(big)], 0,
                     _expect({"value": 0, "modulus": "Z" if n % 2 == 0 else "Z/2",
                              "vanishes": True}, lambda r: r["result"])))

    # words and belt chords over a three-letter alphabet, about 100 words
    n = rng.randint(3, 5)
    letters = {c: (rng.randint(-2, 4), a) for c, a in
               zip(rng.sample("abcdef", 3), rng.sample(
                   [Fraction(x, 4) for x in (4, 5, 6, 8, 10, 12)], 3))}
    wbound = O.bound_for_count(letters, 100, Fraction(40))
    alpha = write("alpha.json", _spectrum_doc(n, letters, wbound + 1))
    ops.append(CliOp(["words", alpha, "--bound", _q(wbound)], 0,
                     _words_check(letters, wbound)))

    # subcritical handle of index k: iterate j has degree 2n - k - 4 + 2j
    n, iterates = rng.randint(3, 6), rng.randint(1, 6)
    k = rng.choice([k for k in range(1, n) if k != 2])
    obound = Fraction(rng.randint(10, 30))
    orbits = [(rng.randint(1, 6), obound * Fraction(rng.randint(1, 9), 10))
              for _ in range(rng.randint(0, 3))]
    want = ([d for d, _ in orbits]
            + [2 * n - k - 4 + 2 * j for j in range(1, iterates + 1)])
    ops.append(CliOp(["surgery", "subcritical",
                      write("orbits.json", _orbits_doc(n, orbits, obound)),
                      "--n", str(n), "--k", str(k), "--iterates", str(iterates)],
                     0, _expect(want, lambda r: [o["degree"] for o in
                                                 r["result"]["orbits"]])))

    # critical surgery pipeline: bounds 1..m, positive, word orbits counted
    n, m = rng.randint(3, 5), rng.randint(1, 3)
    wmax = m * 4 ** m
    pletters = {f"c{i}": (rng.randint(1, 6),
                          Fraction(rng.randint(int(0.6 * wmax), 2 * wmax - 1), 2))
                for i in range(rng.randint(1, 4))}
    stages, want = [], []
    for k in range(1, m + 1):
        window = k * 4 ** k
        sbound = window + Fraction(rng.randint(1, 8), 2)
        orbits = [(rng.randint(1, 6), sbound * Fraction(rng.randint(1, 9), 10))
                  for _ in range(rng.randint(0, 3))]
        stages.append((Fraction(1, 2 ** (k - 1)), sbound, orbits))
        below = {c: v for c, v in pletters.items() if v[1] < window}
        words = O.necklace_counts(below, window) if below else {}
        degrees = sorted([d for d, a in orbits if a < window]
                         + [d + n - 3 for d, c in words.items() for _ in range(c)])
        want.append((Fraction(1, 2 ** (k - 1) * 4 ** k), Fraction(k), degrees))
    cert = write("cert.json", _cert_doc(n, stages))
    pchords = write("pchords.json", _spectrum_doc(n, pletters, Fraction(wmax + 1)))

    def flexible_check(r, want=want):
        got = _read_stages(r["result"])
        summary = [(s, b, sorted(d for d, _, _ in orbs)) for s, b, orbs in got]
        if summary != want:
            return f"stages {summary} != {want}"
        return O.positive_certificate(got)
    ops.append(CliOp(["surgery", "flexible", cert, "--chords", pchords,
                      "--n", str(n)], 0, flexible_check))

    n = rng.randint(3, 5)
    bletters = {c: (rng.randint(-1, 4), a) for c, a in
                zip(rng.sample("pqrs", 2), rng.sample(
                    [Fraction(x, 2) for x in (2, 3, 4, 5)], 2))}
    bbound = O.bound_for_count(bletters, 60, Fraction(40))
    belt = write("belt.json", _spectrum_doc(n, bletters, bbound))
    ops.append(CliOp(["surgery", "belt", belt, "--bound", _q(bbound)], 0,
                     _words_check(bletters, bbound, n)))

    # an index-k ambient handle adds one chord "surg" of degree n - k - 1
    n = rng.randint(3, 6)
    k = rng.randint(1, n - 2)
    amb = write("amb.json", _spectrum_doc(n, bletters, bbound))
    ops.append(CliOp(["surgery", "ambient", amb, "--k", str(k)], 0, _expect(
        (n - k - 1, len(bletters) + 1),
        lambda r: (next(c["degree"] for c in r["result"]["chords"]
                        if c["id"] == "surg"), len(r["result"]["chords"])))))

    ops.append(CliOp(["adc-check", cert], 0, _expect(
        (True, m), lambda r: (r["result"]["fired"], r["result"]["witness"]["stages"]))))

    # a tower with bounds x8 and scales x1/2 normalizes at eps = 1/2
    n, count = rng.randint(3, 5), rng.randint(2, 5)
    tower, bound, scale = [], Fraction(rng.randint(3, 7)), Fraction(1)
    for _ in range(count):
        tower.append((scale, bound, [(rng.randint(1, 6), bound / rng.randint(2, 5))]))
        bound, scale = bound * 8, scale / 2
    src = {(b, tuple(sorted(d for d, _ in orbs))) for _, b, orbs in tower}
    half = Fraction(1, 2)

    def normalize_check(r, src=src):
        got = _read_stages(r["result"])
        if len(got) < 2:
            return "fewer than two stages"
        for m, (s, b, orbs) in enumerate(got, start=1):
            if (b / half ** m, tuple(sorted(d for d, _, _ in orbs))) not in src:
                return f"stage {m} is not a rescaled input stage"
        for (s0, b0, _), (s1, b1, _) in zip(got, got[1:]):
            if s1 > half * s0 or b1 < b0 / half:
                return "stages do not contract by eps"
        return O.positive_certificate(got)
    ops.append(CliOp(["normalize-cert", write("tower.json", _cert_doc(n, tower)),
                      "--eps", "1/2"], 0, normalize_check))

    grid = rng.choice((1999, 2001, 2003))

    def scaling_check(r, grid=grid):
        res = r["result"]
        if not res["ok"] or res["ratio"]["max_ratio"] > 1.25 + 1e-6:
            return "ratio bound fails"
        if abs(res["conformal"]["value"] - math.exp(1.25)) > 1e-12:
            return "conformal factor is not exp(5/4)"
        with open(os.path.join(directory, "profile.csv")) as fh:
            rows = sum(1 for _ in fh) - 1
        return None if rows == grid else f"csv has {rows} rows, want {grid}"
    ops.append(CliOp(["scaling-verify", "--grid", str(grid), "--csv",
                      "profile.csv"], 0, scaling_check))

    def corpus_check(r):
        bad = [e["name"] for e in r["results"] if not e["ok"]]
        if not r["results"] or bad or not r["ok"]:
            return f"corpus entries fail: {bad}"
        return None
    ops.append(CliOp(["examples"], 0, corpus_check))
    return ops
