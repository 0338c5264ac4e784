"""Command line front end.

Every command prints one JSON report (schema 1, canonical key order, so
identical inputs and options give byte-identical output) with a "formula"
field naming the rule it applied.  --table renders the same report as
aligned text; the JSON remains the source of truth.

Exit codes: 0 when the computation succeeds and any property it checks
holds (for detector commands, "distinguished" counts as holding), 1 when a
checked property fails, 2 on invalid input (unreadable files, schema
violations, hypothesis violations, unknown commands).

Every command runs through one runner, `reports(formula, holds)`.  The
command body only loads its inputs (`_load`, `_frac`), computes, and
returns the report fields in their display order.  The runner:

- adds --table as the last option;
- names the report after the command path below the root, such as
  "surgery subcritical";
- prints {"schema": 1, "command": name, "formula": formula, **fields};
  with formula None the body returns the whole report itself;
- exits 1 when `holds` names a report entry ("result.fired", "ok") that is
  false, and 0 otherwise;
- turns a SchemaError or ValueError from the body into the error report
  {"schema", "command", "error", "ok": false}, always as JSON, and exits 2.
  It is the only place that does.
"""

import csv
import functools
import json
import operator
import sys
from fractions import Fraction

import click

from . import chords as chords_mod
from . import corpus as corpus_mod
from . import floer as floer_mod
from . import graded as graded_mod
from . import handles as handles_mod
from . import scaling as scaling_mod
from . import surgery as surgery_mod
from .serialize import SchemaError, dumps_canonical


def _load(path, loader):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not JSON: {exc}") from None
    try:
        return loader(doc)
    except (ValueError, TypeError, KeyError) as exc:
        raise SchemaError(f"{path}: {exc}") from None


def _frac(text, option):
    """The rational an option spells, or None when it was not given."""
    if text is None:
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(
            f"{option} wants a rational like 3/2, got {text!r}: {exc}") from None


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


def _emit(report, table, code):
    click.echo(_render_table(report) if table else dumps_canonical(report))
    sys.exit(code)


def _command_name(ctx):
    names = []
    while ctx.parent is not None:
        names.append(ctx.info_name)
        ctx = ctx.parent
    return " ".join(reversed(names))


def reports(formula, holds=None):
    """Turn a command body into a report command (see the module docstring)."""
    def decorate(body):
        @click.option("--table", "table", is_flag=True,
                      help="Render the report as text instead of JSON.")
        @functools.wraps(body)
        def command(table, **params):
            name = _command_name(click.get_current_context())
            try:
                fields = body(**params)
            except ValueError as exc:  # SchemaError is a ValueError
                _emit({"schema": 1, "command": name, "error": str(exc),
                       "ok": False}, False, 2)
            report = (fields if formula is None else
                      {"schema": 1, "command": name, "formula": formula,
                       **fields})
            fails = holds is not None and not functools.reduce(
                operator.getitem, holds.split("."), report)
            _emit(report, table, 1 if fails else 0)
        return command
    return decorate


@click.group()
def main():
    """Exact handle-calculus, grading, and convexity toolkit."""


@main.command()
@click.argument("presentation", type=click.Path())
@click.option("--coeff", type=click.Choice(["Z", "Q", "F2"]), default="Z")
@reports("H_k of the handle chain complex by Smith normal form")
def homology(presentation, coeff):
    """Homology of a handle presentation, over Z, Q, or F2."""
    p = _load(presentation, handles_mod.HandlePresentation.from_json)
    h = p.homology()
    if coeff == "Z":
        result = h.to_json()["graded_group"]
    else:
        result = {str(k): h.dim(k, coeff) for k in h.support
                  if h.dim(k, coeff)}
    return dict(coefficients=coeff, n=p.n, result=result,
                euler_characteristic=p.euler_characteristic(),
                describe=h.describe())


@main.command()
@click.argument("presentation", type=click.Path())
@reports("dim H^k(Y;Q) = (b_k - r_k) + (b_{d-k-1} - r_{k+1})")
def boundary(presentation):
    """Rational homology of the boundary of a handle presentation."""
    p = _load(presentation, handles_mod.HandlePresentation.from_json)
    return dict(result=handles_mod.boundary_homology(p).to_json())


@main.command("rank-form")
@click.argument("presentation", type=click.Path())
@reports("rank over Q of the middle-degree intersection form")
def rank_form(presentation):
    """Rank of the middle intersection form over Q."""
    p = _load(presentation, handles_mod.HandlePresentation.from_json)
    return dict(n=p.n, result=handles_mod.intersection_form_rank(p))


@main.command("omega-check")
@click.argument("group", type=click.Path())
@click.option("--n", type=int, required=True)
@click.option("--closed", is_flag=True)
@click.option("--simply-connected", is_flag=True)
@click.option("--stably-parallelizable", is_flag=True)
@reports("closed + simply connected + stably parallelizable + "
         "chi = 2 (n even) or chi_1/2 = 1 (n odd)", holds="result.member")
def omega_check(group, n, closed, simply_connected, stably_parallelizable):
    """Membership in the surgery-ready class of n-manifolds."""
    g = _load(group, graded_mod.GradedGroup.from_json)
    verdict = handles_mod.omega_membership(
        g, n, closed, simply_connected, stably_parallelizable)
    return dict(n=n, result={"member": verdict.member,
                             "reason": verdict.reason})


@main.command("sh-plus")
@click.argument("group", type=click.Path())
@click.option("--n", type=int, required=True)
@click.option("--weinstein/--no-weinstein", default=True)
@reports("SH+_k = H^{n-k+1}(W)")
def sh_plus(group, n, weinstein):
    """Positive symplectic homology from filling cohomology, once the
    full invariant vanishes."""
    g = _load(group, graded_mod.GradedGroup.from_json)
    profile = floer_mod.sh_plus_from_vanishing(g, n, weinstein)
    return dict(n=n, result=profile.to_json())


@main.command("wh-plus")
@click.argument("group", type=click.Path())
@click.option("--n", type=int, required=True)
@reports("WH+_k = H^{n-k-1}(L)")
def wh_plus(group, n):
    """Positive wrapped homology of an exact Lagrangian filling."""
    g = _load(group, graded_mod.GradedGroup.from_json)
    return dict(n=n, result=floer_mod.wh_plus_from_vanishing(g, n).to_json())


@main.command()
@click.argument("group_a", type=click.Path())
@click.argument("group_b", type=click.Path())
@click.option("--n", type=int, required=True)
@reports("flexible fillings transport H^*(W) to a contact invariant",
         holds="result.fired")
def distinguish(group_a, group_b, n):
    """Contact-distinguish boundaries of two flexible domains."""
    a = _load(group_a, graded_mod.GradedGroup.from_json)
    b = _load(group_b, graded_mod.GradedGroup.from_json)
    verdict = floer_mod.distinguish_flexible_fillings(a, b, n)
    return dict(n=n, result=verdict.to_json())


@main.command("cem-bound")
@click.option("--k", type=int, required=True)
@click.option("--dim", "dim_h1", type=int, required=True)
@reports("no flexible filling once k >= dim H^1(Y;Z/2) + 2",
         holds="result.fires")
def cem_bound(k, dim_h1):
    """Copy-count obstruction to flexible fillings."""
    fires = floer_mod.cem_flexible_obstruction(k, dim_h1)
    return dict(k=k, dim_h1_mod2=dim_h1,
                result={"fires": fires, "threshold": dim_h1 + 2})


@main.command("loops-distinguish")
@click.argument("table_m", type=click.Path())
@click.argument("table_n", type=click.Path())
@click.argument("boundary_group", type=click.Path())
@click.option("--n", type=int, required=True)
@reports("fires when |dim H_k(LM) - dim H_k(LN)| exceeds "
         "2 H^{n-k}(Y) + 2 H^{n-k+1}(Y)", holds="result.fired")
def loops_distinguish(table_m, table_n, boundary_group, n):
    """Separate two contact boundaries by free-loop-space homology."""
    lm = _load(table_m, floer_mod.LoopHomologyTable.from_json)
    ln = _load(table_n, floer_mod.LoopHomologyTable.from_json)
    hy = _load(boundary_group, graded_mod.GradedGroup.from_json)
    hy_dims = {k: hy.dim(k, "Q") for k in hy.support}
    verdict = floer_mod.boundedinfinite_distinguisher(lm, ln, hy_dims, n)
    return dict(n=n, result=verdict.to_json())


@main.command()
@click.argument("group_l", type=click.Path())
@click.argument("group_m", type=click.Path())
@click.option("--degree-pm1/--no-degree-pm1", default=True)
@reports("a degree +-1 surjection between equal finitely generated "
         "groups is an isomorphism", holds="result.fired")
def nearby(group_l, group_m, degree_pm1):
    """Isomorphism verdict for the projection of an exact Lagrangian."""
    hl = _load(group_l, graded_mod.GradedGroup.from_json)
    hm = _load(group_m, graded_mod.GradedGroup.from_json)
    verdict = floer_mod.nearby_conclusion(hl, hm, degree_pm1)
    return dict(result=verdict.to_json())


@main.command("chord-degree")
@click.option("--down", type=int, required=True)
@click.option("--up", type=int, required=True)
@click.option("--ind", type=int, required=True)
@reports("|c| = D - U + ind - 1")
def chord_degree_cmd(down, up, ind):
    """Grading of a Reeb chord from front-projection data."""
    return dict(down=down, up=up, ind=ind,
                result=chords_mod.chord_degree(down, up, ind))


@main.command()
@click.argument("spectrum", type=click.Path())
@click.option("--big-n", "big_n", type=int, default=None,
              help="Stabilization count; default is the minimal N making "
                   "every degree positive.")
@click.option("--eps", default=None, help="Total zig-zag action budget.")
@click.option("--sites", type=int, default=None)
@reports("old degrees shift by 2N; 2Nqk zig-zag chords enter at "
         "degree 1 + ind")
def stabilize(spectrum, big_n, eps, sites):
    """Zig-zag stabilize a chord spectrum until all degrees are positive."""
    s = _load(spectrum, chords_mod.ChordSpectrum.from_json)
    n_stab = chords_mod.min_positive_N(s) if big_n is None else big_n
    budget = _frac(eps, "--eps")
    q_data = chords_mod.choose_Q(s.n)
    out = chords_mod.stabilize(s, n_stab, q_data, budget, sites=sites)
    return dict(N=n_stab, Q=q_data.name, result=out.to_json())


@main.command("self-index")
@click.option("--n", type=int, required=True)
@click.option("--big-n", "big_n", type=int, required=True)
@reports("(-1)^{(n-1)(n-2)/2} N chi(Q)")
def self_index(n, big_n):
    """Self-intersection index of the stabilizing regular homotopy."""
    q_data = chords_mod.choose_Q(n)
    idx = chords_mod.self_intersection_index(n, big_n, q_data)
    return dict(n=n, N=big_n, Q=q_data.name,
                result={"value": idx.value, "modulus": idx.modulus,
                        "vanishes": idx.vanishes})


@main.command()
@click.argument("spectrum", type=click.Path())
@click.option("--bound", required=True, help="Action window, as a rational.")
@reports("one class per rotation; degree and action add over letters")
def words(spectrum, bound):
    """Cyclic words in the chord alphabet below an action bound."""
    s = _load(spectrum, chords_mod.ChordSpectrum.from_json)
    window = _frac(bound, "--bound")
    rows = [{"word": w.label(), "length": len(w), "degree": w.degree,
             "action": str(w.action)}
            for w in surgery_mod.enumerate_words(s, window)]
    return dict(bound=str(window), count=len(rows), result=rows)


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
@reports("iterate j of the belt orbit has degree 2n - k - 4 + 2j")
def surgery_subcritical(orbits, n, k, iterates, eps, assert_hypotheses):
    """Belt-sphere orbit iterates created by a subcritical handle."""
    s = _load(orbits, surgery_mod.OrbitSpectrum.from_json)
    budget = _frac(eps, "--eps")
    if budget is None:
        budget = s.bound / (2 * iterates) if iterates > 0 else Fraction(1)
    out = surgery_mod.subcritical_surgery(
        s, n, k, iterates, budget, hypotheses_asserted=assert_hypotheses)
    return dict(n=n, k=k, iterates=iterates, result=out.to_json())


@surgery.command("flexible")
@click.argument("certificate", type=click.Path())
@click.option("--chords", "chords_path", type=click.Path(), default=None)
@click.option("--n", type=int, required=True)
@click.option("--zigzag", default=None,
              help="Zig-zag action budget used when stabilizing.")
@reports("widen to action k*4^k, adjoin word orbits, rescale by 4^-k")
def surgery_flexible(certificate, chords_path, n, zigzag):
    """Run a convexity certificate through the critical-surgery pipeline."""
    cert = _load(certificate, surgery_mod.ADCCertificate.from_json)
    chord_data = (None if chords_path is None
                  else _load(chords_path, chords_mod.ChordSpectrum.from_json))
    out = surgery_mod.flexible_surgery_certificate(
        cert, chord_data, n, zigzag_action=_frac(zigzag, "--zigzag"))
    return dict(n=n, result=out.to_json())


@surgery.command("belt")
@click.argument("spectrum", type=click.Path())
@click.option("--bound", default=None, help="Chord window, as a rational.")
@reports("the word w contributes a chord of degree |w| + n - 2")
def surgery_belt(spectrum, bound):
    """Belt-sphere chords after critical surgery: one per cyclic word."""
    s = _load(spectrum, chords_mod.ChordSpectrum.from_json)
    out = surgery_mod.belt_sphere_chords(s, _frac(bound, "--bound"))
    return dict(result=out.to_json())


@surgery.command("ambient")
@click.argument("spectrum", type=click.Path())
@click.option("--k", type=int, required=True)
@click.option("--action", default=None, help="Action of the new chord.")
@reports("an index-k handle adds one chord of degree n - k - 1")
def surgery_ambient(spectrum, k, action):
    """Chord created by an ambient subcritical handle."""
    s = _load(spectrum, chords_mod.ChordSpectrum.from_json)
    out = surgery_mod.add_surgery_chord(s, k, _frac(action, "--action"))
    return dict(k=k, result=out.to_json())


@main.command("adc-check")
@click.argument("certificate", type=click.Path())
@reports("scales weakly decrease, bounds strictly increase, "
         "contractible orbits have positive degree", holds="result.fired")
def adc_check_cmd(certificate):
    """Check a staged convexity certificate record by record."""
    cert = _load(certificate, surgery_mod.ADCCertificate.from_json)
    return dict(result=surgery_mod.adc_check(cert).to_json())


@main.command("normalize-cert")
@click.argument("certificate", type=click.Path())
@click.option("--eps", required=True, help="Shrink factor in (0, 1).")
@reports("stage m is rescaled by eps^m; scales contract by eps, "
         "bounds grow by 1/eps")
def normalize_cert(certificate, eps):
    """Extract a geometric subsequence with scale ratio <= eps."""
    cert = _load(certificate, surgery_mod.ADCCertificate.from_json)
    factor = _frac(eps, "--eps")
    out = surgery_mod.normalize_certificate(cert, factor)
    return dict(eps=str(factor), result=out.to_json())


@main.command("scaling-verify")
@click.option("--grid", type=int, default=2001)
@click.option("--t-max", type=float, default=0.999)
@click.option("--height", type=float, default=1.25)
@click.option("--tol", default="1/1000000",
              help="Slack on the ratio cap, as a rational.")
@click.option("--csv", "csv_path", type=click.Path(), default=None,
              help="Also dump the sampled profile (z, g, G) as CSV.")
@reports("g/(t g + 1) <= cap, integral of g vanishes, exp(cap) < 4, "
         "family identities hold on the grid", holds="result.ok")
def scaling_verify(grid, t_max, height, tol, csv_path):
    """Verify the scaling-profile bounds on a grid."""
    tolerance = float(_frac(tol, "--tol"))
    profile = scaling_mod.build_g(height=height, nodes=grid)
    ratio = scaling_mod.bound_ratio(profile, t_max=t_max, nodes=grid,
                                    tolerance=tolerance)
    conf = scaling_mod.conformal_bound(height)
    family = scaling_mod.verify_h_family(profile, nodes=grid, t_max=t_max)
    if csv_path is not None:
        zs = profile.own_grid()
        samples = zip(zs, profile.g(zs), profile.antiderivative(zs))
        try:
            with open(csv_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["z", "g", "G"])
                writer.writerows([repr(float(x)) for x in row]
                                 for row in samples)
        except OSError as exc:
            raise ValueError(f"cannot write {csv_path}: {exc}") from None
    return dict(result={"profile": profile.to_json(),
                        "ratio": ratio.to_json(),
                        "conformal": conf.to_json(),
                        "family": family.to_json(),
                        "ok": ratio.holds and conf.holds and family.ok})


@main.command()
@click.argument("name", required=False)
@click.option("--i", "i_param", type=int, default=None,
              help="Family parameter for entries that take one.")
@reports(None, holds="ok")
def examples(name, i_param):
    """Run the named worked example, or the whole corpus."""
    options = {} if i_param is None else {"i": i_param}
    report = corpus_mod.examples_corpus(None if name is None else [name],
                                        **options)
    report["formula"] = ("each entry recomputes a worked example and "
                         "compares it to its stored answer")
    return report


if __name__ == "__main__":
    main()
