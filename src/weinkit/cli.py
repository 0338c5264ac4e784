"""Command line front end.

Every command prints one JSON report (schema 1, canonical key order, so
identical inputs and options give byte-identical output) with a "formula"
field naming the rule it applied.  --table renders the same report as
aligned text; the JSON remains the source of truth.

Exit codes: 0 when the computation succeeds and any property it checks
holds (for detector commands, "distinguished" counts as holding), 1 when a
checked property fails, 2 on invalid input (unreadable files, schema
violations, hypothesis violations, unknown commands).
"""

import csv
import json
import sys
from fractions import Fraction

import click

from . import chords as chords_mod
from . import corpus as corpus_mod
from . import floer as floer_mod
from . import handles as handles_mod
from . import scaling as scaling_mod
from . import surgery as surgery_mod
from .graded import GradedGroup
from .serialize import SchemaError, dumps_canonical


def _fail(command, message):
    report = {"schema": 1, "command": command, "error": str(message),
              "ok": False}
    click.echo(dumps_canonical(report))
    sys.exit(2)


def _load(command, path, loader):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        _fail(command, f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        _fail(command, f"{path} is not JSON: {exc}")
    try:
        return loader(doc)
    except (SchemaError, ValueError, TypeError, KeyError) as exc:
        _fail(command, f"{path}: {exc}")


def _frac(command, text, option):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        _fail(command, f"{option} wants a rational like 3/2, got {text!r}: {exc}")


def _rows_to_table(rows):
    headers = list(rows[0])
    cells = [[str(r.get(h, "")) for h in headers] for r in rows]
    widths = [max(len(h), *(len(c[i]) for c in cells))
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    lines.extend("  ".join(c.ljust(w) for c, w in zip(row, widths))
                 for row in cells)
    return "\n".join(lines)


def _render_table(doc, indent=0):
    pad = "  " * indent
    lines = []
    for key, value in doc.items():
        if isinstance(value, dict) and value:
            lines.append(f"{pad}{key}:")
            lines.append(_render_table(value, indent + 1))
        elif (isinstance(value, list) and value
              and all(isinstance(v, dict) for v in value)):
            lines.append(f"{pad}{key}:")
            body = _rows_to_table([{k: _scalar(v2) for k, v2 in v.items()}
                                   for v in value])
            lines.extend(pad + "  " + ln for ln in body.splitlines())
        else:
            lines.append(f"{pad}{key}: {_scalar(value)}")
    return "\n".join(lines)


def _scalar(value):
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return value


def _emit(report, table, code=0):
    if table:
        click.echo(_render_table(report))
    else:
        click.echo(dumps_canonical(report))
    sys.exit(code)


def _report(command, formula, **fields):
    doc = {"schema": 1, "command": command, "formula": formula}
    doc.update(fields)
    return doc


def _run(command, fn):
    """Domain errors (bad hypotheses, impossible requests) are invalid
    input for the command: exit 2 with the message."""
    try:
        return fn()
    except (SchemaError, ValueError) as exc:
        _fail(command, exc)


with_output = click.option("--table", "table", is_flag=True,
                           help="Render the report as text instead of JSON.")


@click.group()
def main():
    """Exact handle-calculus, grading, and convexity toolkit."""


@main.command()
@click.argument("presentation", type=click.Path())
@click.option("--coeff", type=click.Choice(["Z", "Q", "F2"]), default="Z")
@with_output
def homology(presentation, coeff, table):
    """Homology of a handle presentation, over Z, Q, or F2."""
    p = _load("homology", presentation, handles_mod.HandlePresentation.from_json)
    h = _run("homology", p.homology)
    if coeff == "Z":
        result = h.to_json()["graded_group"]
    else:
        result = {str(k): h.dim(k, coeff) for k in h.support
                  if h.dim(k, coeff)}
    _emit(_report("homology",
                  "H_k of the handle chain complex by Smith normal form",
                  coefficients=coeff, n=p.n, result=result,
                  euler_characteristic=p.euler_characteristic(),
                  describe=h.describe()), table)


@main.command()
@click.argument("presentation", type=click.Path())
@with_output
def boundary(presentation, table):
    """Rational homology of the boundary of a handle presentation."""
    p = _load("boundary", presentation, handles_mod.HandlePresentation.from_json)
    rep = _run("boundary", lambda: handles_mod.boundary_homology(p))
    _emit(_report("boundary",
                  "dim H^k(Y;Q) = (b_k - r_k) + (b_{d-k-1} - r_{k+1})",
                  result=rep.to_json()), table)


@main.command("rank-form")
@click.argument("presentation", type=click.Path())
@with_output
def rank_form(presentation, table):
    """Rank of the middle intersection form over Q."""
    p = _load("rank-form", presentation, handles_mod.HandlePresentation.from_json)
    rank = _run("rank-form", lambda: handles_mod.intersection_form_rank(p))
    _emit(_report("rank-form",
                  "rank over Q of the middle-degree intersection form",
                  n=p.n, result=rank), table)


@main.command("omega-check")
@click.argument("group", type=click.Path())
@click.option("--n", type=int, required=True)
@click.option("--closed", is_flag=True)
@click.option("--simply-connected", is_flag=True)
@click.option("--stably-parallelizable", is_flag=True)
@with_output
def omega_check(group, n, closed, simply_connected, stably_parallelizable,
                table):
    """Membership in the surgery-ready class of n-manifolds."""
    g = _load("omega-check", group, GradedGroup.from_json)
    verdict = _run("omega-check", lambda: handles_mod.omega_membership(
        g, n, closed, simply_connected, stably_parallelizable))
    _emit(_report("omega-check",
                  "closed + simply connected + stably parallelizable + "
                  "chi = 2 (n even) or chi_1/2 = 1 (n odd)",
                  n=n, result={"member": verdict.member,
                               "reason": verdict.reason}),
          table, 0 if verdict.member else 1)


@main.command("sh-plus")
@click.argument("group", type=click.Path())
@click.option("--n", type=int, required=True)
@click.option("--weinstein/--no-weinstein", default=True)
@with_output
def sh_plus(group, n, weinstein, table):
    """Positive symplectic homology from filling cohomology, once the
    full invariant vanishes."""
    g = _load("sh-plus", group, GradedGroup.from_json)
    profile = _run("sh-plus",
                   lambda: floer_mod.sh_plus_from_vanishing(g, n, weinstein))
    _emit(_report("sh-plus", "SH+_k = H^{n-k+1}(W)",
                  n=n, result=profile.to_json()), table)


@main.command("wh-plus")
@click.argument("group", type=click.Path())
@click.option("--n", type=int, required=True)
@with_output
def wh_plus(group, n, table):
    """Positive wrapped homology of an exact Lagrangian filling."""
    g = _load("wh-plus", group, GradedGroup.from_json)
    profile = _run("wh-plus", lambda: floer_mod.wh_plus_from_vanishing(g, n))
    _emit(_report("wh-plus", "WH+_k = H^{n-k-1}(L)",
                  n=n, result=profile.to_json()), table)


@main.command()
@click.argument("group_a", type=click.Path())
@click.argument("group_b", type=click.Path())
@click.option("--n", type=int, required=True)
@with_output
def distinguish(group_a, group_b, n, table):
    """Contact-distinguish boundaries of two flexible domains."""
    a = _load("distinguish", group_a, GradedGroup.from_json)
    b = _load("distinguish", group_b, GradedGroup.from_json)
    verdict = _run("distinguish",
                   lambda: floer_mod.distinguish_flexible_fillings(a, b, n))
    _emit(_report("distinguish",
                  "flexible fillings transport H^*(W) to a contact invariant",
                  n=n, result=verdict.to_json()),
          table, 0 if verdict.fired else 1)


@main.command("cem-bound")
@click.option("--k", type=int, required=True)
@click.option("--dim", "dim_h1", type=int, required=True)
@with_output
def cem_bound(k, dim_h1, table):
    """Copy-count obstruction to flexible fillings."""
    fires = _run("cem-bound",
                 lambda: floer_mod.cem_flexible_obstruction(k, dim_h1))
    _emit(_report("cem-bound",
                  "no flexible filling once k >= dim H^1(Y;Z/2) + 2",
                  k=k, dim_h1_mod2=dim_h1,
                  result={"fires": fires, "threshold": dim_h1 + 2}),
          table, 0 if fires else 1)


@main.command("loops-distinguish")
@click.argument("table_m", type=click.Path())
@click.argument("table_n", type=click.Path())
@click.argument("boundary_group", type=click.Path())
@click.option("--n", type=int, required=True)
@with_output
def loops_distinguish(table_m, table_n, boundary_group, n, table):
    """Separate two contact boundaries by free-loop-space homology."""
    lm = _load("loops-distinguish", table_m, floer_mod.LoopHomologyTable.from_json)
    ln = _load("loops-distinguish", table_n, floer_mod.LoopHomologyTable.from_json)
    hy = _load("loops-distinguish", boundary_group, GradedGroup.from_json)
    hy_dims = {k: hy.dim(k, "Q") for k in hy.support}
    verdict = _run("loops-distinguish", lambda: floer_mod.
                   boundedinfinite_distinguisher(lm, ln, hy_dims, n))
    _emit(_report("loops-distinguish",
                  "fires when |dim H_k(LM) - dim H_k(LN)| exceeds "
                  "2 H^{n-k}(Y) + 2 H^{n-k+1}(Y)",
                  n=n, result=verdict.to_json()),
          table, 0 if verdict.fired else 1)


@main.command()
@click.argument("group_l", type=click.Path())
@click.argument("group_m", type=click.Path())
@click.option("--degree-pm1/--no-degree-pm1", default=True)
@with_output
def nearby(group_l, group_m, degree_pm1, table):
    """Isomorphism verdict for the projection of an exact Lagrangian."""
    hl = _load("nearby", group_l, GradedGroup.from_json)
    hm = _load("nearby", group_m, GradedGroup.from_json)
    verdict = _run("nearby",
                   lambda: floer_mod.nearby_conclusion(hl, hm, degree_pm1))
    _emit(_report("nearby",
                  "a degree +-1 surjection between equal finitely generated "
                  "groups is an isomorphism",
                  result=verdict.to_json()),
          table, 0 if verdict.fired else 1)


@main.command("chord-degree")
@click.option("--down", type=int, required=True)
@click.option("--up", type=int, required=True)
@click.option("--ind", type=int, required=True)
@with_output
def chord_degree_cmd(down, up, ind, table):
    """Grading of a Reeb chord from front-projection data."""
    deg = _run("chord-degree",
               lambda: chords_mod.chord_degree(down, up, ind))
    _emit(_report("chord-degree", "|c| = D - U + ind - 1",
                  down=down, up=up, ind=ind, result=deg), table)


@main.command()
@click.argument("spectrum", type=click.Path())
@click.option("--big-n", "big_n", type=int, default=None,
              help="Stabilization count; default is the minimal N making "
                   "every degree positive.")
@click.option("--eps", default=None, help="Total zig-zag action budget.")
@click.option("--sites", type=int, default=None)
@with_output
def stabilize(spectrum, big_n, eps, sites, table):
    """Zig-zag stabilize a chord spectrum until all degrees are positive."""
    s = _load("stabilize", spectrum, chords_mod.ChordSpectrum.from_json)
    n_stab = chords_mod.min_positive_N(s) if big_n is None else big_n
    budget = (min(Fraction(1), s.bound) / 2 if eps is None
              else _frac("stabilize", eps, "--eps"))
    q_data = _run("stabilize", lambda: chords_mod.choose_Q(s.n))
    out = _run("stabilize", lambda: chords_mod.stabilize(
        s, n_stab, q_data, budget, sites=sites))
    _emit(_report("stabilize",
                  "old degrees shift by 2N; 2Nqk zig-zag chords enter at "
                  "degree 1 + ind",
                  N=n_stab, Q=q_data.name, result=out.to_json()), table)


@main.command("self-index")
@click.option("--n", type=int, required=True)
@click.option("--big-n", "big_n", type=int, required=True)
@with_output
def self_index(n, big_n, table):
    """Self-intersection index of the stabilizing regular homotopy."""
    q_data = _run("self-index", lambda: chords_mod.choose_Q(n))
    idx = _run("self-index", lambda: chords_mod.self_intersection_index(
        n, big_n, q_data))
    _emit(_report("self-index", "(-1)^{(n-1)(n-2)/2} N chi(Q)",
                  n=n, N=big_n, Q=q_data.name,
                  result={"value": idx.value, "modulus": idx.modulus,
                          "vanishes": idx.vanishes}), table)


@main.command()
@click.argument("spectrum", type=click.Path())
@click.option("--bound", required=True, help="Action window, as a rational.")
@with_output
def words(spectrum, bound, table):
    """Cyclic words in the chord alphabet below an action bound."""
    s = _load("words", spectrum, chords_mod.ChordSpectrum.from_json)
    window = _frac("words", bound, "--bound")
    found = _run("words", lambda: surgery_mod.enumerate_words(s, window))
    rows = [{"word": w.label(), "length": len(w), "degree": w.degree,
             "action": str(w.action)} for w in found]
    _emit(_report("words",
                  "one class per rotation; degree and action add over letters",
                  bound=str(window), count=len(rows), result=rows), table)


@main.group()
def surgery():
    """Effect of handle attachment on chord and orbit spectra."""


@surgery.command("subcritical")
@click.argument("orbits", type=click.Path())
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--iterates", type=int, required=True)
@click.option("--eps", default=None, help="Action of the first belt iterate.")
@click.option("--assert-hypotheses", is_flag=True,
              help="Caller asserts pi_1 hypotheses for k = 2.")
@with_output
def surgery_subcritical(orbits, n, k, iterates, eps, assert_hypotheses,
                        table):
    """Belt-sphere orbit iterates created by a subcritical handle."""
    s = _load("surgery subcritical", orbits, surgery_mod.OrbitSpectrum.from_json)
    if eps is None:
        budget = s.bound / (2 * iterates) if iterates > 0 else Fraction(1)
    else:
        budget = _frac("surgery subcritical", eps, "--eps")
    out = _run("surgery subcritical", lambda: surgery_mod.subcritical_surgery(
        s, n, k, iterates, budget, hypotheses_asserted=assert_hypotheses))
    _emit(_report("surgery subcritical",
                  "iterate j of the belt orbit has degree 2n - k - 4 + 2j",
                  n=n, k=k, iterates=iterates, result=out.to_json()), table)


@surgery.command("flexible")
@click.argument("certificate", type=click.Path())
@click.option("--chords", "chords_path", type=click.Path(), default=None)
@click.option("--n", type=int, required=True)
@click.option("--zigzag", default=None,
              help="Zig-zag action budget used when stabilizing.")
@with_output
def surgery_flexible(certificate, chords_path, n, zigzag, table):
    """Run a convexity certificate through the critical-surgery pipeline."""
    cert = _load("surgery flexible", certificate,
                 surgery_mod.ADCCertificate.from_json)
    chord_data = None
    if chords_path is not None:
        chord_data = _load("surgery flexible", chords_path,
                           chords_mod.ChordSpectrum.from_json)
    budget = (None if zigzag is None
              else _frac("surgery flexible", zigzag, "--zigzag"))
    out = _run("surgery flexible",
               lambda: surgery_mod.flexible_surgery_certificate(
                   cert, chord_data, n, zigzag_action=budget))
    _emit(_report("surgery flexible",
                  "widen to action k*4^k, adjoin word orbits, rescale by 4^-k",
                  n=n, result=out.to_json()), table)


@surgery.command("belt")
@click.argument("spectrum", type=click.Path())
@click.option("--bound", default=None, help="Chord window, as a rational.")
@with_output
def surgery_belt(spectrum, bound, table):
    """Belt-sphere chords after critical surgery: one per cyclic word."""
    s = _load("surgery belt", spectrum, chords_mod.ChordSpectrum.from_json)
    window = (None if bound is None
              else _frac("surgery belt", bound, "--bound"))
    out = _run("surgery belt",
               lambda: surgery_mod.belt_sphere_chords(s, window))
    _emit(_report("surgery belt",
                  "the word w contributes a chord of degree |w| + n - 2",
                  result=out.to_json()), table)


@surgery.command("ambient")
@click.argument("spectrum", type=click.Path())
@click.option("--k", type=int, required=True)
@click.option("--action", default=None, help="Action of the new chord.")
@with_output
def surgery_ambient(spectrum, k, action, table):
    """Chord created by an ambient subcritical handle."""
    s = _load("surgery ambient", spectrum, chords_mod.ChordSpectrum.from_json)
    act = (None if action is None
           else _frac("surgery ambient", action, "--action"))
    out = _run("surgery ambient",
               lambda: surgery_mod.add_surgery_chord(s, k, act))
    _emit(_report("surgery ambient",
                  "an index-k handle adds one chord of degree n - k - 1",
                  k=k, result=out.to_json()), table)


@main.command("adc-check")
@click.argument("certificate", type=click.Path())
@with_output
def adc_check_cmd(certificate, table):
    """Check a staged convexity certificate record by record."""
    cert = _load("adc-check", certificate, surgery_mod.ADCCertificate.from_json)
    verdict = _run("adc-check", lambda: surgery_mod.adc_check(cert))
    _emit(_report("adc-check",
                  "scales weakly decrease, bounds strictly increase, "
                  "contractible orbits have positive degree",
                  result=verdict.to_json()),
          table, 0 if verdict.fired else 1)


@main.command("normalize-cert")
@click.argument("certificate", type=click.Path())
@click.option("--eps", required=True, help="Shrink factor in (0, 1).")
@with_output
def normalize_cert(certificate, eps, table):
    """Extract a geometric subsequence with scale ratio <= eps."""
    cert = _load("normalize-cert", certificate,
                 surgery_mod.ADCCertificate.from_json)
    factor = _frac("normalize-cert", eps, "--eps")
    out = _run("normalize-cert",
               lambda: surgery_mod.normalize_certificate(cert, factor))
    _emit(_report("normalize-cert",
                  "stage m is rescaled by eps^m; scales contract by eps, "
                  "bounds grow by 1/eps",
                  eps=str(factor), result=out.to_json()), table)


@main.command("scaling-verify")
@click.option("--grid", type=int, default=2001)
@click.option("--t-max", type=float, default=0.999)
@click.option("--height", type=float, default=1.25)
@click.option("--tol", default="1/1000000",
              help="Slack on the ratio cap, as a rational.")
@click.option("--csv", "csv_path", type=click.Path(), default=None,
              help="Also dump the sampled profile (z, g, G) as CSV.")
@with_output
def scaling_verify(grid, t_max, height, tol, csv_path, table):
    """Verify the scaling-profile bounds on a grid."""
    tolerance = float(_frac("scaling-verify", tol, "--tol"))
    profile = _run("scaling-verify",
                   lambda: scaling_mod.build_g(height=height, nodes=grid))
    ratio = _run("scaling-verify", lambda: scaling_mod.bound_ratio(
        profile, t_max=t_max, nodes=grid, tolerance=tolerance))
    conf = _run("scaling-verify",
                lambda: scaling_mod.conformal_bound(height))
    family = _run("scaling-verify", lambda: scaling_mod.verify_h_family(
        profile, nodes=grid, t_max=t_max))
    if csv_path is not None:
        zs = profile.own_grid()
        gs = profile.g(zs)
        antis = profile.antiderivative(zs)
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["z", "g", "G"])
            for z, g, anti in zip(zs, gs, antis):
                writer.writerow([repr(float(z)), repr(float(g)),
                                 repr(float(anti))])
    ok = ratio.holds and conf.holds and family.ok
    _emit(_report("scaling-verify",
                  "g/(t g + 1) <= cap, integral of g vanishes, exp(cap) < 4, "
                  "family identities hold on the grid",
                  result={"profile": profile.to_json(),
                          "ratio": ratio.to_json(),
                          "conformal": conf.to_json(),
                          "family": family.to_json(),
                          "ok": ok}),
          table, 0 if ok else 1)


@main.command()
@click.argument("name", required=False)
@click.option("--i", "i_param", type=int, default=None,
              help="Family parameter for entries that take one.")
@with_output
def examples(name, i_param, table):
    """Run the named worked example, or the whole corpus."""
    options = {} if i_param is None else {"i": i_param}
    names = None if name is None else [name]
    report = _run("examples",
                  lambda: corpus_mod.examples_corpus(names, **options))
    report["formula"] = ("each entry recomputes a worked example and "
                         "compares it to its stored answer")
    _emit(report, table, 0 if report["ok"] else 1)


if __name__ == "__main__":
    main()
