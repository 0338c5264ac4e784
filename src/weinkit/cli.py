"""Command line front end, on the standard library's argparse.

`main(args=None, prog_name="weinkit")` runs `weinkit ARGS` (default
sys.argv[1:]) and ends the process with `sys.exit(code)`: 0 when the
computation succeeds and any property it checks holds (for detector
commands, "distinguished" counts as holding), 1 when a checked property
fails or stdout is closed early, 2 on invalid input (unreadable files,
schema and hypothesis violations, usage errors).

Each command is declared once, as `command(name, formula, *params,
holds=None)` over its body.  One runner, `_run`, first reads each input by
its argument name, in declaration order: a file named in `_RECORDS` as its
record, an option named in `_RATIONALS` as a Fraction.  The body computes
from them and returns the report fields in display order.  `_run` prints
one JSON report, {"schema": 1, "command": name, "formula": formula,
**fields} in canonical key order (with formula None the body returns the
whole report), or aligned text under --table.  It exits 1 when `holds`
names a false report entry ("result.fired", "ok"), else 0.  It alone
turns a SchemaError or ValueError from a read or the body into the JSON
error report {"schema", "command", "error", "ok": false}, with exit 2.
"""

import argparse
import functools
import json
import operator
import os
import sys
from argparse import BooleanOptionalAction
from fractions import Fraction

from . import chords as chords_mod
from . import corpus as corpus_mod
from . import floer as floer_mod
from . import graded as graded_mod
from . import handles as handles_mod
from . import scaling as scaling_mod
from . import surgery as surgery_mod
from .serialize import (
    INT,
    SchemaError,
    degree_map,
    dumps_canonical,
    parse_rational,
    ratio_to_str,
)


def _load(path, module, record):
    read = getattr(module, record).from_json
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise SchemaError(f"{path} is not JSON: {exc}") from None
    try:
        return read(doc)
    except ValueError as exc:  # every from_json raises SchemaError
        raise SchemaError(f"{path}: {exc}") from None


# file argument -> (lazy module, class) of its record, looked up when a
# command runs, so a process executes only the modules it reads
_RECORDS = {
    "presentation": (handles_mod, "HandlePresentation"),
    "orbits": (surgery_mod, "OrbitSpectrum"),
    "certificate": (surgery_mod, "ADCCertificate"),
    **dict.fromkeys(("spectrum", "chords"), (chords_mod, "ChordSpectrum")),
    **dict.fromkeys(("table_m", "table_n"), (floer_mod, "LoopHomologyTable")),
    **dict.fromkeys(("group", "group_a", "group_b", "group_l", "group_m",
                     "boundary_group"), (graded_mod, "GradedGroup")),
}
# the options --NAME read as a rational
_RATIONALS = ("eps", "bound", "zigzag", "action", "tol")


def _rows_to_table(rows):
    headers = list(rows[0])
    cells = [headers, *([str(r.get(h, "")) for h in headers] for r in rows)]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    cells.insert(1, ["-" * w for w in widths])
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(row, widths))
                     for row in cells)


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


# command name -> (body, formula, holds, params), in the order of --help
COMMANDS = {}
GROUPS = {"": "Exact handle-calculus, grading, and convexity toolkit.",
          "surgery": "Effect of handle attachment on chord and orbit spectra."}


def command(name, formula, *params, holds=None):
    """Register a body as the command NAME (see above).  Each of PARAMS is
    an argument's name or the (names, keywords) of an `add_argument` call."""
    def register(body):
        COMMANDS[name] = body, formula, holds, params
        return body
    return register


def _run(command, table, **params):
    """Run COMMAND's body, print its report, return the exit code."""
    body, formula, holds, _ = COMMANDS[command]
    head = {"schema": 1, "command": command}
    try:
        for name, value in params.items():  # in declaration order
            if value is not None and name in _RECORDS:
                params[name] = _load(value, *_RECORDS[name])
            elif value is not None and name in _RATIONALS:
                params[name] = parse_rational(
                    value, f"--{name} wants a rational like 3/2, got")
        report = body(**params)
    except ValueError as exc:  # SchemaError is a ValueError
        table, code = False, 2
        report = {**head, "error": str(exc), "ok": False}
    else:
        if formula is not None:
            report = {**head, "formula": formula, **report}
        code = int(holds is not None and not functools.reduce(
            operator.getitem, holds.split("."), report))
    print(_render_table(report) if table else dumps_canonical(report))
    return code


def _arg(*names, **keywords):
    return names, keywords


_N, _K = (_arg(flag, type=int, required=True) for flag in ("--n", "--k"))
_TABLE = _arg("--table", action="store_true",
              help="Render the report as text instead of JSON.")


class _Parser(argparse.ArgumentParser):
    """No abbreviations, no -h; a `takes_value` option takes any next token.
    The arguments PARAMS (as `command` takes them) are added when the
    parser first parses, so a process builds only the arguments of the
    command it runs."""

    def __init__(self, params=(), **keywords):
        super().__init__(allow_abbrev=False, add_help=False, **keywords)
        self.takes_value = set()
        self.params = params
        self.add_argument("--help", action="help",
                          help="Show this message and exit.")

    def parse_known_args(self, args=None, namespace=None):
        for param in self.params:
            names, keywords = _arg(param) if isinstance(param, str) else param
            action = self.add_argument(*names, **keywords)
            if action.nargs != 0:
                self.takes_value.update(action.option_strings)
        self.params = ()
        tokens, joined = list(args), []  # "--eps -1/2" -> "--eps=-1/2"
        while tokens and tokens[0] != "--":
            token = tokens.pop(0)
            if token in self.takes_value and tokens:
                token += "=" + tokens.pop(0)
            joined.append(token)
        return super().parse_known_args(joined + tokens, namespace)

    def _print_message(self, message, file=None):
        # argparse drops a failed write; a stdout reader that is gone must
        # reach main as BrokenPipeError, as it does when the write is
        # buffered.  Writes to stderr keep argparse's handling.
        if message and file is not None and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def _parser(prog):
    root = _Parser(prog=prog, description=GROUPS[""])
    choices = {"": root.add_subparsers(metavar="COMMAND", required=True)}
    for name, (body, _, _, params) in COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group not in choices:
            choices[group] = choices[""].add_parser(
                group, help=GROUPS[group], description=GROUPS[group]
            ).add_subparsers(metavar="COMMAND", required=True)
        choices[group].add_parser(
            leaf, help=body.__doc__, description=body.__doc__,
            params=(*params, _TABLE)).set_defaults(command=name)
    return root


def main(args=None, prog_name="weinkit"):
    """Run `weinkit ARGS` and end the process with its exit code."""
    try:
        try:
            params = vars(_parser(prog_name).parse_args(
                sys.argv[1:] if args is None else args))
            code = _run(**params)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: exit 1, flushing what is left to /dev/null
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


@command("homology", "H_k of the handle chain complex by Smith normal form",
         "presentation",
         _arg("--coeff", choices=("Z", "Q", "F2"), default="Z"))
def homology(presentation, coeff):
    """Homology of a handle presentation, over Z, Q, or F2."""
    h = presentation.homology()
    result = (h.to_json()["graded_group"] if coeff == "Z" else
              degree_map(INT)[0]({k: h.dim(k, coeff) for k in h.field_support
                                  if h.dim(k, coeff)}))
    return dict(coefficients=coeff, n=presentation.n, result=result,
                euler_characteristic=presentation.euler_characteristic(),
                describe=h.describe())


@command("boundary", "dim H^k(Y;Q) = (b_k - r_k) + (b_{d-k-1} - r_{k+1})",
         "presentation")
def boundary(presentation):
    """Rational homology of the boundary of a handle presentation."""
    return dict(result=handles_mod.boundary_homology(presentation).to_json())


@command("rank-form", "rank over Q of the middle-degree intersection form",
         "presentation")
def rank_form(presentation):
    """Rank of the middle intersection form over Q."""
    return dict(n=presentation.n,
                result=handles_mod.intersection_form_rank(presentation))


@command("omega-check", "closed + simply connected + stably parallelizable "
         "+ chi = 2 (n even) or chi_1/2 = 1 (n odd)", "group", _N, *(
             _arg(flag, action="store_true") for flag in (
                 "--closed", "--simply-connected", "--stably-parallelizable")),
         holds="result.member")
def omega_check(group, n, closed, simply_connected, stably_parallelizable):
    """Membership in the surgery-ready class of n-manifolds."""
    verdict = handles_mod.omega_membership(
        group, n, closed, simply_connected, stably_parallelizable)
    return dict(n=n, result={"member": verdict.member,
                             "reason": verdict.reason})


@command("sh-plus", "SH+_k = H^{n-k+1}(W)", "group", _N,
         _arg("--weinstein", action=BooleanOptionalAction, default=True))
def sh_plus(group, n, weinstein):
    """Positive symplectic homology from filling cohomology, once the
    full invariant vanishes."""
    profile = floer_mod.sh_plus_from_vanishing(group, n, weinstein)
    return dict(n=n, result=profile.to_json())


@command("wh-plus", "WH+_k = H^{n-k-1}(L)", "group", _N)
def wh_plus(group, n):
    """Positive wrapped homology of an exact Lagrangian filling."""
    return dict(n=n,
                result=floer_mod.wh_plus_from_vanishing(group, n).to_json())


@command("distinguish", "flexible fillings transport H^*(W) to a contact "
         "invariant", "group_a", "group_b", _N, holds="result.fired")
def distinguish(group_a, group_b, n):
    """Contact-distinguish boundaries of two flexible domains."""
    verdict = floer_mod.distinguish_flexible_fillings(group_a, group_b, n)
    return dict(n=n, result=verdict.to_json())


@command("cem-bound", "no flexible filling once k >= dim H^1(Y;Z/2) + 2",
         _K, _arg("--dim", type=int, required=True), holds="result.fires")
def cem_bound(k, dim):
    """Copy-count obstruction to flexible fillings."""
    fires = floer_mod.cem_flexible_obstruction(k, dim)
    return dict(k=k, dim_h1_mod2=dim,
                result={"fires": fires, "threshold": dim + 2})


@command("loops-distinguish", "fires when |dim H_k(LM) - dim H_k(LN)| "
         "exceeds 2 H^{n-k}(Y) + 2 H^{n-k+1}(Y)",
         "table_m", "table_n", "boundary_group", _N, holds="result.fired")
def loops_distinguish(table_m, table_n, boundary_group, n):
    """Separate two contact boundaries by free-loop-space homology."""
    hy = {k: boundary_group.dim(k, "Q") for k in boundary_group.support}
    verdict = floer_mod.boundedinfinite_distinguisher(table_m, table_n, hy, n)
    return dict(n=n, result=verdict.to_json())


@command("nearby", "a degree +-1 surjection between equal finitely "
         "generated groups is an isomorphism", "group_l", "group_m",
         _arg("--degree-pm1", action=BooleanOptionalAction, default=True),
         holds="result.fired")
def nearby(group_l, group_m, degree_pm1):
    """Isomorphism verdict for the projection of an exact Lagrangian."""
    verdict = floer_mod.nearby_conclusion(group_l, group_m, degree_pm1)
    return dict(result=verdict.to_json())


@command("chord-degree", "|c| = D - U + ind - 1", *(
    _arg(name, type=int, required=True)
    for name in ("--down", "--up", "--ind")))
def chord_degree_cmd(down, up, ind):
    """Grading of a Reeb chord from front-projection data."""
    return dict(down=down, up=up, ind=ind,
                result=chords_mod.chord_degree(down, up, ind))


@command("stabilize", "old degrees shift by 2N; 2Nqk zig-zag chords enter "
         "at degree 1 + ind", "spectrum",
         _arg("--big-n", type=int, help="Stabilization count; default is "
              "the minimal N making every degree positive."),
         _arg("--eps", help="Total zig-zag action budget."),
         _arg("--sites", type=int))
def stabilize(spectrum, big_n, eps, sites):
    """Zig-zag stabilize a chord spectrum until all degrees are positive."""
    n_stab = chords_mod.min_positive_N(spectrum) if big_n is None else big_n
    q_data = chords_mod.choose_Q(spectrum.n)
    out = chords_mod.stabilize(spectrum, n_stab, q_data, eps, sites=sites)
    return dict(N=n_stab, Q=q_data.name, result=out.to_json())


@command("self-index", "(-1)^{(n-1)(n-2)/2} N chi(Q)", _N,
         _arg("--big-n", type=int, required=True))
def self_index(n, big_n):
    """Self-intersection index of the stabilizing regular homotopy."""
    q_data = chords_mod.choose_Q(n)
    idx = chords_mod.self_intersection_index(n, big_n, q_data)
    return dict(n=n, N=big_n, Q=q_data.name,
                result={"value": idx.value, "modulus": idx.modulus,
                        "vanishes": idx.vanishes})


@command("words", "one class per rotation; degree and action add over "
         "letters", "spectrum",
         _arg("--bound", required=True, help="Action window, as a rational."))
def words(spectrum, bound):
    """Cyclic words in the chord alphabet below an action bound."""
    rows = [{"word": w.label(), "length": len(w), "degree": w.degree,
             "action": ratio_to_str(w._action)}
            for w in surgery_mod.enumerate_words(spectrum, bound)]
    return dict(bound=str(bound), count=len(rows), result=rows)


@command("surgery subcritical",
         "iterate j of the belt orbit has degree 2n - k - 4 + 2j",
         "orbits", _N, _K, _arg("--iterates", type=int, required=True),
         _arg("--eps", help="Action of the first belt iterate."),
         _arg("--assert-hypotheses", action="store_true",
              help="Caller asserts pi_1 hypotheses for k = 2."))
def surgery_subcritical(orbits, n, k, iterates, eps, assert_hypotheses):
    """Belt-sphere orbit iterates created by a subcritical handle."""
    if eps is None:
        eps = orbits.bound / (2 * iterates) if iterates > 0 else Fraction(1)
    out = surgery_mod.subcritical_surgery(
        orbits, n, k, iterates, eps, hypotheses_asserted=assert_hypotheses)
    return dict(n=n, k=k, iterates=iterates, result=out.to_json())


@command("surgery flexible", "widen to action k*4^k, adjoin word orbits, "
         "rescale by 4^-k", "certificate", _arg("--chords"), _N,
         _arg("--zigzag", help="Zig-zag action budget used when stabilizing."))
def surgery_flexible(certificate, chords, n, zigzag):
    """Run a convexity certificate through the critical-surgery pipeline."""
    out = surgery_mod.flexible_surgery_certificate(
        certificate, chords, n, zigzag_action=zigzag)
    return dict(n=n, result=out.to_json())


@command("surgery belt",
         "the word w contributes a chord of degree |w| + n - 2", "spectrum",
         _arg("--bound", help="Chord window, as a rational."))
def surgery_belt(spectrum, bound):
    """Belt-sphere chords after critical surgery: one per cyclic word."""
    out = surgery_mod.belt_sphere_chords(spectrum, bound)
    return dict(result=out.to_json())


@command("surgery ambient",
         "an index-k handle adds one chord of degree n - k - 1", "spectrum",
         _K, _arg("--action", help="Action of the new chord."))
def surgery_ambient(spectrum, k, action):
    """Chord created by an ambient subcritical handle."""
    out = surgery_mod.add_surgery_chord(spectrum, k, action)
    return dict(k=k, result=out.to_json())


@command("adc-check", "scales weakly decrease, bounds strictly increase, "
         "contractible orbits have positive degree", "certificate",
         holds="result.fired")
def adc_check_cmd(certificate):
    """Check a staged convexity certificate record by record."""
    return dict(result=surgery_mod.adc_check(certificate).to_json())


@command("normalize-cert", "stage m is rescaled by eps^m; scales contract "
         "by eps, bounds grow by 1/eps", "certificate",
         _arg("--eps", required=True, help="Shrink factor in (0, 1)."))
def normalize_cert(certificate, eps):
    """Extract a geometric subsequence with scale ratio <= eps."""
    out = surgery_mod.normalize_certificate(certificate, eps)
    return dict(eps=str(eps), result=out.to_json())


@command("scaling-verify", "g/(t g + 1) <= cap, integral of g vanishes, "
         "exp(cap) < 4, family identities hold, all in exact arithmetic",
         _arg("--grid", type=int, default=2001,
              help="Rows of the --csv dump; the bounds are exact and "
                   "sample nothing."),
         _arg("--t-max", type=float, default=0.999),
         _arg("--height", type=float, default=1.25),
         _arg("--tol", default="1/1000000",
              help="Slack on the ratio cap, as a rational."),
         _arg("--csv", dest="csv_path",
              help="Also dump the sampled profile (z, g, G) as CSV."),
         holds="result.ok")
def scaling_verify(grid, t_max, height, tol, csv_path):
    """Verify the scaling-profile bounds on a grid."""
    profile = scaling_mod.build_g(height=height, nodes=grid)
    ratio = scaling_mod.bound_ratio(profile, t_max=t_max, tolerance=tol)
    conf = scaling_mod.conformal_bound(height)
    family = scaling_mod.verify_h_family(profile, t_max=t_max)
    if csv_path is not None:
        import csv
        try:
            with open(csv_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["z", "g", "G"])
                writer.writerows(map(repr, row) for row in profile.samples())
        except OSError as exc:
            raise ValueError(f"cannot write {csv_path}: {exc}") from None
    return dict(result={
        "profile": profile.to_json(), "ratio": ratio.to_json(),
        "conformal": conf.to_json(), "family": family.to_json(),
        "ok": ratio.holds and conf.holds and family.ok})


@command("examples", None, _arg("name", nargs="?"),
         _arg("--i", type=int,
              help="Family parameter for entries that take one."), holds="ok")
def examples(name, i):
    """Run the named worked example, or the whole corpus."""
    options = {} if i is None else {"i": i}
    report = corpus_mod.examples_corpus(None if name is None else [name],
                                        **options)
    report["formula"] = ("each entry recomputes a worked example and "
                         "compares it to its stored answer")
    return report


if __name__ == "__main__":
    main()
