"""weinkit: exact handle-calculus homology, Reeb chord/orbit grading, and
asymptotic-dynamical-convexity certificates for Weinstein domains.

`import weinkit` executes none of its submodules.  Each one is registered
in `sys.modules` behind `importlib.util.LazyLoader` and executes on first
attribute access, so a process pays only for the modules it uses.  A name
re-exported here resolves through its home module on first use (PEP 562).
`import weinkit.x` executes x at once; `from weinkit import x` does not.
`weinkit.cli` is the command-line entry point and is not registered.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# home module -> the public names re-exported from it
_EXPORTS = {
    "graded": (
        "ChainComplex", "GradedGroup", "cancel_summand",
        "cohomology_from_homology", "euler_characteristic", "homology",
        "homology_from_cohomology", "invariant_factor_chain",
        "semi_characteristic"),
    "snf": ("SNFResult", "bareiss_determinant", "invariant_factors",
            "is_unimodular", "smith_normal_form"),
    "handles": (
        "BoundaryHomologyReport", "C1Report", "HandlePresentation",
        "OmegaVerdict", "boundary_connect_sum", "boundary_homology",
        "c1_propagation_check", "cohomology", "handlebody_boundary_homology",
        "intersection_form_rank", "omega_membership"),
    "floer": (
        "LoopHomologyTable", "SHPlusProfile", "Verdict",
        "boundedinfinite_distinguisher", "cem_flexible_obstruction",
        "distinguish_flexible_fillings", "flexible_support_test",
        "nearby_conclusion", "sh_plus_from_vanishing", "sh_plus_reindex_back",
        "sh_support_adc_obstruction", "taut_les_bounds",
        "wh_plus_from_vanishing", "wrapped_loop_grading"),
    "chords": (
        "ChordRecord", "ChordSpectrum", "MorseData", "SelfIntersectionIndex",
        "chord_degree", "choose_Q", "min_positive_N",
        "self_intersection_index", "stabilize"),
    "surgery": (
        "ADCCertificate", "CyclicWord", "OrbitRecord", "OrbitSpectrum",
        "Stage", "adc_check", "add_surgery_chord", "belt_sphere_chords",
        "canonical_rotation", "enumerate_words",
        "flexible_surgery_certificate", "nonsimultaneous_words",
        "normalize_certificate", "orbits_after_surgery", "rescale",
        "subcritical_surgery"),
    "scaling": ("GProfile", "bound_ratio", "build_g", "conformal_bound",
                "verify_h_family"),
    "corpus": ("CORPUS", "examples_corpus", "run_example"),
    "models": (),
    "serialize": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def _lazy(name):
    """Submodule NAME, registered to execute on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update((name, _lazy(name)) for name in _EXPORTS)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # bound here, so that later lookups of the name do not come back
    value = globals()[name] = getattr(globals()[_HOME[name]], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
