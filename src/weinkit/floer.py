"""Positive symplectic/wrapped invariants from vanishing, and distinguishers.

Nothing here computes Floer theory.  Every operation starts from an asserted
vanishing (SH = 0, WH = 0) or from user-supplied dimension tables, and pushes
cohomology through the degree reindexings those vanishing results force.
Distinguisher verdicts are three-valued: fired, inconclusive, or invalid
input; "the two are the same" is never claimed.
"""

from .graded import GradedGroup, _read_groups
from .serialize import GROUP_ENTRY, INT, SCHEMA_VERSION, Record, Verdict, as_int, degree_map, optional, reader


INDISTINGUISHABLE = "indistinguishable by this invariant"


class SHPlusProfile(Record):
    """Graded profile of a positive-symplectic or wrapped invariant.

    group holds integral descriptors; provenance records whether the entries
    came out of a vanishing formula or straight from the caller.
    """
    __slots__ = ("group", "provenance")

    def __init__(self, group, provenance="formula"):
        if provenance not in ("formula", "user-supplied"):
            raise ValueError(f"unknown provenance {provenance!r}")
        Record.__init__(self, group, provenance)

    @property
    def support(self):
        return self.group.support

    def dim(self, k, coeff="Q"):
        return self.group.dim(k, coeff)

    def to_json(self):
        return {
            "schema": SCHEMA_VERSION,
            "profile": self.group.to_json()["graded_group"],
            "provenance": self.provenance,
        }

    @staticmethod
    @reader("SHPlusProfile")
    def from_json(doc):
        group = GradedGroup.from_dict(_read_groups(doc["profile"], "profile"))
        return SHPlusProfile(group, doc.get("provenance", "user-supplied"))


def sh_plus_from_vanishing(hstar_w: GradedGroup, n, weinstein=True) -> SHPlusProfile:
    """SH_k+ = H^{n-k+1}(W;Z), valid once the caller asserts SH(W) = 0.

    With weinstein=True the input must be supported in degrees [0, n] (a
    domain built from handles of index <= n), which pins the profile inside
    [1, n+1]; in particular nothing survives in degrees k <= 0.
    """
    return _cohomology_profile(hstar_w, n, n + 1, weinstein)


def _cohomology_profile(hstar, n, shift, check=True):
    """The profile k -> H^{shift - k}; with check, H^* must lie in degrees
    [0, n]."""
    if check:
        bad = sorted(shift - j for j in hstar.support if not 0 <= j <= n)
        if bad:
            raise ValueError(
                f"cohomology reaches outside degrees [0, {n}]; "
                f"profile would be supported at k = {bad}")
    return SHPlusProfile(hstar.reindex(shift, -1), "formula")


def sh_plus_reindex_back(profile: SHPlusProfile, n) -> GradedGroup:
    """Inverse of the SH+ reindexing: degree k back to cohomological n-k+1."""
    return profile.group.reindex(n + 1, -1)


def taut_les_bounds(known_dims, hstar_dims, n):
    """Per-degree interval for the partner dimension in the tautological
    exact sequence relating SH and SH+.

    |dim SH_k - dim SH_k+| <= B_k with B_k = dim H^{n-k} + dim H^{n-k+1},
    so from either one of the pair the other lies in
    [max(0, s - B_k), s + B_k].  Both directions use the same window.
    """
    n = as_int(n, "half-dimension n")
    for table, name in ((known_dims, "known_dims"), (hstar_dims, "hstar_dims")):
        for k, v in table.items():
            if v < 0:
                raise ValueError(f"{name}[{k}] = {v} is negative")
    degrees = set(known_dims)
    degrees.update(n - j for j in hstar_dims)
    degrees.update(n - j + 1 for j in hstar_dims)
    out = {}
    for k in sorted(degrees):
        s = known_dims.get(k, 0)
        b = hstar_dims.get(n - k, 0) + hstar_dims.get(n - k + 1, 0)
        out[k] = (max(0, s - b), s + b)
    return out


def distinguish_flexible_fillings(hstar_a: GradedGroup, hstar_b: GradedGroup,
                                  n) -> Verdict:
    """Contact-distinguish two boundaries of flexible domains (c_1 = 0
    asserted by the caller) through their filling cohomologies."""
    n = as_int(n, "half-dimension n")
    if n < 3:
        raise ValueError(f"flexibility needs n >= 3, got n = {n}")
    k = hstar_a.first_difference(hstar_b)
    if k is None:
        return Verdict(INDISTINGUISHABLE, False)
    write_entry = GROUP_ENTRY[0]
    return Verdict("non-contactomorphic", True, witness={
        "degree": k, "left": write_entry(hstar_a.at(k)),
        "right": write_entry(hstar_b.at(k))})


def cem_flexible_obstruction(k, dim_h1_mod2) -> bool:
    """True ("no flexible filling possible") iff k >= dim H^1(Y;Z/2) + 2.

    A flexible filling would force the boundary connect-sum count k of
    copies to satisfy k <= dim H^1(Y;Z/2) + 1.
    """
    k = as_int(k, "copy count")
    dim_h1_mod2 = as_int(dim_h1_mod2, "dim H^1(Y;Z/2)")
    if k < 1:
        raise ValueError(f"copy count must be >= 1, got {k}")
    if dim_h1_mod2 < 0:
        raise ValueError(f"dimension must be >= 0, got {dim_h1_mod2}")
    return k >= dim_h1_mod2 + 2


def flexible_support_test(support, n) -> Verdict:
    """Flexible fillings force SH+ support inside [1, n+1]; anything at
    k <= 0 or k >= n+2 rules a flexible filling out."""
    n = as_int(n, "half-dimension n")
    return _least_offender(support, lambda k: not 1 <= k <= n + 1,
                           "no flexible filling", allowed_range=[1, n + 1])


def _least_offender(support, offends, outcome, **window):
    """Fires at the least offending degree; the witness states the window."""
    k = min((k for k in support if offends(k)), default=None)
    if k is None:
        return Verdict("inconclusive", False, witness=window)
    return Verdict(outcome, True, witness={"degree": k, **window})


class LoopHomologyTable(Record):
    """Finite table of dim_Q H_k of a free loop space, with its base manifold.

    dims: {degree: dim} complete up to the declared horizon; base: the
    manifold's own Betti numbers.  Constant loops include into the loop
    space, so dims must dominate base degreewise; violations mean the
    input data is wrong and are rejected here.
    """
    __slots__ = ("dims", "base", "horizon")
    _codecs = {"dims": degree_map(INT), "base": degree_map(INT),
               "horizon": optional(INT, None)}

    def __init__(self, dims, base, horizon=None):
        def counts(table, name):
            out = {}
            for k, v in table.items():
                k = as_int(k, f"{name} degree")
                v = as_int(v, f"{name} at degree {k}")
                if v != 0:
                    out[k] = v
            return out
        dims, base = counts(dims, "dims"), counts(base, "base")
        horizon = (as_int(horizon, "horizon") if horizon is not None
                   else max(dims.keys() | base.keys(), default=0))
        for table, name in ((dims, "dims"), (base, "base")):
            for k, v in table.items():
                if k < 0 or v < 0:
                    raise ValueError(f"{name} has negative entry at degree {k}")
                if k > horizon:
                    raise ValueError(
                        f"{name} entry at degree {k} beyond horizon {horizon}")
        # dims >= 0, so only a base degree can fail, however far the horizon
        for k in sorted(base):
            if dims.get(k, 0) < base[k]:
                raise ValueError(
                    f"constant loops violated at degree {k}: "
                    f"dim {dims.get(k, 0)} < base {base[k]}")
        Record.__init__(self, dims, base, horizon)

    def dim(self, k):
        return self.dims.get(k, 0)


def boundedinfinite_distinguisher(lm: LoopHomologyTable, ln: LoopHomologyTable,
                                  hy_dims, n) -> Verdict:
    """Separate two contact boundaries by loop-space homology growth.

    Fires at the first degree k (up to the common horizon) where
    |dim H_k(LM) - dim H_k(LN)| > 2 dim H^{n-k}(Y) + 2 dim H^{n-k+1}(Y).
    """
    # the bound is 2 B_k, with (0, B_k) the exact-sequence window of no
    # known dims; taut_les_bounds rejects negative dims, so the bound is
    # >= 0 and only degrees of a table, where the gap can be nonzero, fire
    window = taut_les_bounds({}, hy_dims, n)
    horizon = min(lm.horizon, ln.horizon)
    for k in sorted(k for k in lm.dims.keys() | ln.dims.keys() if k <= horizon):
        lhs = abs(lm.dim(k) - ln.dim(k))
        rhs = 2 * window.get(k, (0, 0))[1]
        if lhs > rhs:
            return Verdict("non-contactomorphic", True, coefficients="Q",
                           witness={"degree": k, "gap": lhs, "bound": rhs})
    return Verdict(INDISTINGUISHABLE, False, coefficients="Q",
                   witness={"horizon": horizon})


def wh_plus_from_vanishing(hstar_l: GradedGroup, n) -> SHPlusProfile:
    """WH_k+ = H^{n-k-1}(L;Z) for an exact filling L, once WH(L,L) = 0.
    The n-manifold L has cohomology in degrees [0, n] only, which pins the
    profile inside [-1, n-1]."""
    return _cohomology_profile(hstar_l, n, n - 1)


def wrapped_loop_grading(h_omega: GradedGroup, n) -> SHPlusProfile:
    """WH_k of a cotangent fiber = H_{k-n+2} of the based loop space."""
    return SHPlusProfile(h_omega.reindex(n - 2), "formula")


def nearby_conclusion(hl: GradedGroup, hm: GradedGroup,
                      degree_pm1) -> Verdict:
    """Isomorphism verdict for the projection of an exact Lagrangian to the
    zero section.

    With a single transverse intersection point (degree_pm1) the induced
    map is a degree +-1 surjection; a surjective endomorphism of a finitely
    generated abelian group is an isomorphism, so equal descriptors settle it.
    """
    if isinstance(hl, dict):
        hl = GradedGroup.free(hl)
    if isinstance(hm, dict):
        hm = GradedGroup.free(hm)
    if not degree_pm1:
        return Verdict("inconclusive", False,
                       witness={"reason": "projection degree not +-1"})
    if hl == hm:
        return Verdict("homology projection is an isomorphism", True)
    return Verdict("inconclusive", False,
                   witness={"reason": "homology descriptors differ",
                            "degree": hl.first_difference(hm)})


def sh_support_adc_obstruction(support, n) -> Verdict:
    """Asymptotically dynamically convex boundaries have SH_k+ = 0 in
    degrees k <= 3 - n; support there rules the property out."""
    n = as_int(n, "half-dimension n")
    return _least_offender(support, lambda k: k <= 3 - n, "not ADC",
                           vanishing_range=f"k <= {3 - n}")
