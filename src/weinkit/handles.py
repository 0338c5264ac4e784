"""Handle presentations of Weinstein domains and their boundary topology.

The boundary engine is dimension generic: for a compact handlebody W of
total dimension d with handle indices <= m < d, the long exact sequence of
(W, Y = boundary W) plus Poincare-Lefschetz duality H^k(W, Y) = H_{d-k}(W)
gives, over Q,

    dim H^k(Y) = (dim H^k(W) - r_k) + (dim H_{d-k-1}(W) - r_{k+1}),

where r_j is the rank of the intersection pairing H_{d-j}(W) x H_j(W) -> Q.
r_j is forced to 0 whenever either side has rank 0; the remaining ranks
cannot be read off the chain complex (they encode attaching framings), so
they are caller data, and degrees depending on missing ranks are reported
as undetermined rather than guessed.
"""

from .graded import (
    ChainComplex,
    GradedGroup,
    cohomology_from_homology,
    euler_characteristic,
    homology,
    semi_characteristic,
)
from .serialize import BOOL, GROUP_ENTRY, INT, MATRIX, SCHEMA_VERSION, STRING, Record, as_int, bool_from_json, degree_map, int_from_json, list_from_json, matrix_from_json, matrix_to_json, optional, reader, records_of, str_from_json, tuple_of
from .snf import _as_rows, block_sum, invariant_factors


# a presentation's boundary matrices, as a chain complex's boundaries
_write_matrices, _read_matrices, _ = optional(degree_map(MATRIX), None)


class HandlePresentation(Record):
    """A Weinstein domain W^{2n} as handles plus integer boundary matrices.

    handles: iterable of indices, or of (index, label) pairs.  All indices
    must lie in [0, n] and there must be exactly one 0-handle unless
    allow_many_zero_handles is set.  intersection_form, when given, is the
    integer matrix of the middle-dimensional pairing on the n-handles
    (framing data; not derivable from the chain complex).
    """
    __slots__ = ("n", "handles", "chain", "intersection_form")

    def __init__(self, n, handles, boundaries=None, intersection_form=None,
                 *, allow_many_zero_handles=False):
        n = as_int(n, "half-dimension n")
        if n < 1:
            raise ValueError(f"half-dimension n must be >= 1, got {n}")
        norm = []
        for i, h in enumerate(handles):
            if isinstance(h, (tuple, list)):
                k, label = h
                norm.append((as_int(k, f"handle {label!r} index"), str(label)))
            else:
                k = as_int(h, "handle index")
                norm.append((k, f"h{k}.{i}"))
        counts = {}
        for k, label in norm:
            if not 0 <= k <= n:
                raise ValueError(
                    f"handle {label!r} has index {k}, outside [0, {n}]")
            counts[k] = counts.get(k, 0) + 1
        if counts.get(0, 0) != 1 and not allow_many_zero_handles:
            raise ValueError(
                f"expected exactly one 0-handle, got {counts.get(0, 0)} "
                "(pass allow_many_zero_handles to override)")
        chain = ChainComplex(counts, boundaries or {})
        if counts.get(0, 0) == 1 and chain.boundary(1) is not None:
            raise ValueError(
                "with a single 0-handle every 1-handle boundary is zero")
        if intersection_form is not None:
            try:
                intersection_form = _as_rows(intersection_form)
            except ValueError as e:
                raise ValueError(f"intersection form: {e}") from None
            nn = counts.get(n, 0)
            if (len(intersection_form) != nn
                    or any(len(r) != nn for r in intersection_form)):
                raise ValueError(
                    f"intersection form must be {nn}x{nn} for {nn} {n}-handles")
        Record.__init__(self, n, tuple(norm), chain, intersection_form)

    @property
    def total_dim(self):
        return 2 * self.n

    def handle_counts(self):
        return dict(self.chain.dims)

    def homology(self) -> GradedGroup:
        return homology(self.chain)

    def cohomology(self) -> GradedGroup:
        return cohomology_from_homology(self.homology())

    def euler_characteristic(self) -> int:
        return self.chain.euler_characteristic()

    def to_json(self):
        doc = {
            "schema": SCHEMA_VERSION,
            "n": self.n,
            "handles": [{"index": k, "label": label} for k, label in self.handles],
            "boundary_matrices": _write_matrices(self.chain.boundaries),
        }
        if self.intersection_form is not None:
            doc["intersection_form"] = matrix_to_json(self.intersection_form)
        if self.chain.dim(0) != 1:
            doc["allow_many_zero_handles"] = True
        return doc

    @staticmethod
    @reader("HandlePresentation")
    def from_json(doc):
        n = int_from_json(doc["n"], "n")
        # an unlabeled handle is its bare index: the constructor labels it
        handles = []
        for h in list_from_json(doc["handles"], "handles"):
            if not isinstance(h, dict):
                raise ValueError("handle entry must be an object")
            index = int_from_json(h["index"], "handle index")
            handles.append((index, str_from_json(h["label"], "handle label"))
                           if "label" in h else index)
        form = doc.get("intersection_form")
        return HandlePresentation(
            n, handles, _read_matrices(doc.get("boundary_matrices"),
                                       "boundary_matrices"),
            None if form is None else matrix_from_json(form),
            allow_many_zero_handles=bool_from_json(
                doc.get("allow_many_zero_handles", False),
                "allow_many_zero_handles"))


def cohomology(p: HandlePresentation):
    """(H_*(W;Z), H^*(W;Z)) of the domain; cohomology via universal coefficients."""
    h = p.homology()
    return h, cohomology_from_homology(h)


class BoundaryHomologyReport(Record):
    """Q-dimensions (and forced integral groups) of the boundary Y of a handlebody.

    q_dims holds only the determined degrees; degrees whose value needs a
    missing pairing rank are listed in undetermined.  integral_homology maps
    degree j to the forced H_j(Y;Z) descriptor (rank, invariant factors).
    """
    __slots__ = ("boundary_dim", "q_dims", "undetermined",
                 "integral_homology", "euler", "notes")
    _codecs = {"boundary_dim": INT, "q_dims": degree_map(INT),
               "undetermined": tuple_of(INT, "undetermined degree"),
               "integral_homology": degree_map(GROUP_ENTRY), "euler": INT,
               "notes": tuple_of(STRING, "note")}

    def __init__(self, boundary_dim, q_dims, undetermined, integral_homology,
                 euler, notes=()):
        Record.__init__(self, boundary_dim, q_dims, undetermined,
                        integral_homology, euler, notes)

    def dim(self, k):
        """dim_Q H_k(Y), or None when undetermined."""
        if k in self.undetermined:
            return None
        return self.q_dims.get(k, 0)

    @property
    def fully_determined(self):
        return not self.undetermined

    def graded_q(self):
        if self.undetermined:
            raise ValueError(
                f"boundary dimensions undetermined in degrees {self.undetermined}; "
                "supply intersection-pairing data")
        return dict(self.q_dims)

    def semi_characteristic(self):
        if self.boundary_dim % 2 == 0:
            raise ValueError("semi-characteristic needs an odd-dimensional boundary")
        half = (self.boundary_dim - 1) // 2
        for k in range(half + 1):
            if k in self.undetermined:
                raise ValueError(f"degree {k} undetermined")
        return sum(self.q_dims.get(k, 0) for k in range(half + 1)) % 2


def _checked_rank(h, d, j, r):
    """R, checked as the rank of the pairing H_{d-j} x H_j -> Q on H."""
    cap = min(h.rank(j), h.rank(d - j))
    if not 0 <= r <= cap:
        raise ValueError(
            f"pairing rank {r} at degree {j} exceeds min(b_{j}, b_{d - j}) = {cap}")
    return r


def handlebody_boundary_homology(chain: ChainComplex, total_dim,
                                 pairing_ranks=None) -> BoundaryHomologyReport:
    """Boundary homology of a d-dimensional handlebody with the given chain data.

    pairing_ranks: {degree j: rank of the pairing H_{d-j} x H_j -> Q} for
    degrees where both sides are nonzero; symmetrized automatically.
    """
    d = as_int(total_dim, "total dimension")
    if d < 2:
        raise ValueError(f"total dimension must be >= 2, got {d}")
    m = chain.top_degree
    if m >= d:
        raise ValueError(
            f"handle indices reach {m} >= total dimension {d}: no boundary left")
    h = homology(chain)
    hstar = cohomology_from_homology(h)

    ranks = {}
    notes = []
    for j, r in (pairing_ranks or {}).items():
        j = as_int(j, "pairing degree")
        r = _checked_rank(h, d, j, as_int(r, "pairing rank"))
        for jj in (j, d - j):
            if jj in ranks and ranks[jj] != r:
                raise ValueError(f"conflicting pairing ranks at degree {jj}")
            ranks[jj] = r

    def pairing_rank(j):
        """Known rank of H_{d-j} x H_j pairing, or None."""
        if h.rank(j) == 0 or h.rank(d - j) == 0:
            return 0
        return ranks.get(j)

    q_dims = {}
    undetermined = []
    for k in range(d):
        rk = pairing_rank(k)
        rk1 = pairing_rank(k + 1)
        if rk is None or rk1 is None:
            undetermined.append(k)
            continue
        q_dims[k] = (h.rank(k) - rk) + (h.rank(d - k - 1) - rk1)
    if undetermined:
        notes.append(
            "intersection-pairing ranks missing in degrees "
            + ", ".join(str(k) for k in sorted({min(j, d - j) for j in (
                set(undetermined) | {u + 1 for u in undetermined})
                if pairing_rank(j) is None}))
            + "; affected boundary degrees reported undetermined")

    # Q-Poincare duality of Y, degreewise, on the determined part
    for k, v in q_dims.items():
        dual = d - 1 - k
        if dual in q_dims and q_dims[dual] != v:
            raise AssertionError("boundary duality violated: engine bug")

    # forced integral cohomology H^k(Y;Z), then H_j(Y;Z) = H^{d-1-j}(Y;Z)
    forced_coh = {}
    zero = (0, ())
    for k in range(d):
        rel_k = h.at(d - k)          # H^k(W,Y) = H_{d-k}(W)
        rel_k1 = h.at(d - k - 1)     # H^{k+1}(W,Y) = H_{d-k-1}(W)
        coh_k, coh_k1 = hstar.at(k), hstar.at(k + 1)
        if rel_k == rel_k1 == zero:
            forced_coh[k] = coh_k
        elif coh_k == coh_k1 == zero:
            forced_coh[k] = rel_k1
        elif rel_k == coh_k1 == zero and not rel_k1[1]:
            forced_coh[k] = (coh_k[0] + rel_k1[0], coh_k[1])
    integral = {d - 1 - k: v for k, v in forced_coh.items()}

    euler = (1 + (-1) ** (d - 1)) * chain.euler_characteristic()
    if d % 2 == 0:
        if euler != 0:
            raise AssertionError("even-dimensional filling with nonzero "
                                 "boundary Euler characteristic: engine bug")
    elif not undetermined:
        if euler != sum((-1) ** k * v for k, v in q_dims.items()):
            raise AssertionError("boundary Euler characteristic disagrees "
                                 "with the rational dimensions: engine bug")

    return BoundaryHomologyReport(
        boundary_dim=d - 1,
        q_dims=q_dims,
        undetermined=tuple(sorted(undetermined)),
        integral_homology=integral,
        euler=euler,
        notes=tuple(notes),
    )


def boundary_homology(p: HandlePresentation) -> BoundaryHomologyReport:
    """Boundary homology of a Weinstein presentation (total dimension 2n).

    The only possibly-nonzero pairing rank sits in the middle degree n; it
    is read from p.intersection_form when present.
    """
    if p.n < 2:
        raise ValueError(f"boundary homology needs n >= 2, got n = {p.n}")
    ranks = None
    if p.intersection_form is not None:
        ranks = {p.n: invariant_factors(p.intersection_form)[0]}
    return handlebody_boundary_homology(p.chain, 2 * p.n, ranks)


def intersection_form_rank(p: HandlePresentation) -> int:
    """rank = b_n + b_{n-1} - dim H^n(Y;Q) = r_n, as no (n+1)-handle exists:
    the rank of p.intersection_form (at most b_n), else 0 when b_n = 0,
    else undetermined.  Homology is computed once."""
    if p.n < 2:
        raise ValueError(f"intersection form rank needs n >= 2, got n = {p.n}")
    h, form = p.homology(), p.intersection_form
    if form is not None:
        return _checked_rank(h, 2 * p.n, p.n, invariant_factors(form)[0])
    if h.rank(p.n):
        raise ValueError(
            "dim H^n(Y;Q) undetermined without middle framing data; "
            "set intersection_form on the presentation")
    return 0


class OmegaVerdict(Record):
    __slots__ = ("member", "reason")

    def __bool__(self):
        return self.member


def omega_membership(h, n, closed=False, simply_connected=False,
                     stably_parallelizable=False) -> OmegaVerdict:
    """Membership in the class of closed, simply connected, stably
    parallelizable n-manifolds with chi = 2 (n even) or chi_{1/2} = 1 (n odd).

    h: GradedGroup, or {degree: dim_Q} table.  The three flags are caller
    assertions; they are not derivable from homology.
    """
    n = as_int(n, "dimension n")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if isinstance(h, dict):
        h = GradedGroup.free(h)
    missing = [name for name, val in (
        ("closed", closed), ("simply_connected", simply_connected),
        ("stably_parallelizable", stably_parallelizable)) if not val]
    if missing:
        return OmegaVerdict(False, "flags not asserted: " + ", ".join(missing))
    if n % 2 == 0:
        chi = euler_characteristic(h)
        if chi == 2:
            return OmegaVerdict(True, f"n even and chi = {chi} = 2")
        return OmegaVerdict(False, f"n even but chi = {chi} != 2")
    s = semi_characteristic(h, n)
    if s == 1:
        return OmegaVerdict(True, "n odd and semi-characteristic = 1")
    return OmegaVerdict(False, "n odd but semi-characteristic = 0")


def boundary_connect_sum(p: HandlePresentation,
                         q: HandlePresentation) -> HandlePresentation:
    """Boundary connected sum: merge along the (unique) 0-handles."""
    if p.n != q.n:
        raise ValueError(f"half-dimensions differ: {p.n} != {q.n}")
    for side, name in ((p, "left"), (q, "right")):
        if side.chain.dim(0) != 1:
            raise ValueError(f"{name} summand must have exactly one 0-handle")
    handles = [(0, "h0")]
    handles += [(k, f"L.{label}") for k, label in p.handles if k > 0]
    handles += [(k, f"R.{label}") for k, label in q.handles if k > 0]

    # merging the two 0-handles changes only d_1, which is zero on each side
    boundaries = p.chain.direct_sum(q.chain).boundaries

    form = None
    pn, qn = p.chain.dim(p.n), q.chain.dim(q.n)
    if pn == 0 and qn == 0:
        form = []
    elif qn == 0:
        form = p.intersection_form
    elif pn == 0:
        form = q.intersection_form
    elif p.intersection_form is not None and q.intersection_form is not None:
        form = block_sum(p.intersection_form, q.intersection_form,
                         (pn, pn), (qn, qn))
    return HandlePresentation(p.n, handles, boundaries, form)


class C1HandleNote(Record):
    __slots__ = ("index", "label", "applies", "note")
    _codecs = {"index": INT, "label": STRING, "applies": BOOL,
               "note": STRING}
    _schema = False


class C1Report(Record):
    __slots__ = ("n", "entries", "all_apply")
    _codecs = {"n": INT, "all_apply": BOOL,
               "entries": records_of(C1HandleNote)}


def c1_propagation_check(p: HandlePresentation) -> C1Report:
    """Per handle: does attaching it preserve the equivalence 'c_1 = 0 before
    iff after'?  It does except across index-2 handles, where the framing
    enters the relative degree-2 cohomology; the whole checklist needs n >= 3.
    """
    entries = []
    for k, label in p.handles:
        if p.n < 3:
            entries.append(C1HandleNote(k, label, False,
                                        "hypothesis n >= 3 fails"))
        elif k == 2:
            entries.append(C1HandleNote(k, label, False,
                                        "index-2 handle: framing contributes to "
                                        "relative degree-2 cohomology"))
        else:
            entries.append(C1HandleNote(k, label, True,
                                        "no relative degree-2 cohomology"))
    return C1Report(p.n, tuple(entries), all(e.applies for e in entries))
