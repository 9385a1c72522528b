"""Truncated matrix realization of the left shift calculus.

Operators act on the span of the submonoid elements of length <= n.  A
word's matrix is the compression of the true operator, so single-word
entries are exact everywhere; what truncation can corrupt is composition.
Every operator therefore carries a guard band: ``band`` is the largest
length b such that applying the operator to a basis vector of length <= b
agrees with the true (untruncated) action, and ``reach`` bounds how far the
operator can push support lengths upward.  Multiplying operators shrinks
the band by the inner factor's reach; identities are asserted only inside
the surviving band (as whole maps when it covers the basis), so truncation
artifacts never masquerade as algebraic facts.

An operator is stored as a partial map, column -> row; words, ideal masks
and their products are all of this form, and a product is map composition.
A word maps its domain ideal onto its range ideal by x -> g*x, keeping
``Model.sort_key`` order, so its matrix zips the two sides' cached basis
positions (``Model.positions``), and a mask maps one onto itself.

Each matrix is built once per check, and only where the check reads it.
The projection identity multiplies one mask per lattice ideal pairwise.
The diagonal expectation is checked word by word, on word matrices the
caller built, as both of its routes are linear; its value is a diagonal,
``{column: coefficient}``.

A word combination whose gradings are all trivial acts diagonally (a
nonzero grading moves every basis point, because the ambient group
cancels), so a frame-compressed norm is the exact maximum absolute
diagonal value.  A norm probe reads only basis points inside its guard
band, so its frames flag that band's basis alone, and it reads each term's
domain as its cached positions in the band.  Coefficients are summed per
column exactly, as integers over their common denominator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import invsgp
from .ideals import WordTrace, from_trace, full_ideal, intersect
from .models import ModelError

SC_TOL = Fraction(1, 10 ** 9)   # a probed norm at or below this vanishes


class BandExhausted(RuntimeError):
    """No basis columns remain inside the trusted guard band."""


class GradingMismatch(RuntimeError):
    """The two diagonal-expectation computations disagreed on the band."""


@dataclass(frozen=True, eq=False)
class TruncOp:
    """0/1 partial map on the length-truncated basis.

    ``cols`` maps a basis column j to the row of its one unit entry; absent
    columns are zero.  Stored maps are never mutated, so operators may
    share them.  ``band`` and ``reach`` implement the guard-band discipline
    described in the module docstring.
    """

    model: object
    n: int
    cols: dict               # column -> row of its unit entry
    band: int
    reach: int

    def triplets(self):
        return sorted((i, j, 1) for j, i in self.cols.items())

    def to_triplet_text(self) -> str:
        """Documented dump format: a header line
        ``# truncop rows cols band reach`` followed by one ``row col value``
        line per unit entry, the value written as the rational ``1/1``."""
        size = len(self.model.basis(self.n)[0])
        lines = [f"# truncop {size} {size} {self.band} {self.reach}"]
        lines += [f"{i} {j} 1/1" for i, j, _ in self.triplets()]
        return "\n".join(lines) + "\n"


def zero_op(model, n) -> TruncOp:
    return TruncOp(model, n, {}, n, 0)


def projection_op(ideal, n) -> TruncOp:
    """Diagonal 0/1 mask of an ideal's members on the basis."""
    pos = ideal.model.positions(ideal.exact, n)
    return TruncOp(ideal.model, n, dict(zip(pos, pos)), n, 0)


def word_reach(v) -> int:
    return 0 if v.is_zero else sum(v.model.length(q) for _, q in v.trace.pairs)


def rep_vword(v, n) -> TruncOp:
    """Compression of a word's partial shift to the truncated basis: the
    domain's members of length <= n paired in order with the range's, as
    the zip of the two sides' cached basis positions."""
    model = v.model
    cols = dict(zip(model.positions(v.dom.exact, n),
                    model.positions(v.ran.exact, n)))
    reach = word_reach(v)
    if reach > n:
        raise BandExhausted(f"word reach {reach} exceeds truncation {n}")
    return TruncOp(model, n, cols, n - reach, reach)


def _check_compat(a: TruncOp, b: TruncOp):
    if a.model is not b.model or a.n != b.n:
        raise ModelError("operators live on different truncations")


def mul_op(a: TruncOp, b: TruncOp) -> TruncOp:
    """a * b, the composite map, with band shrunk by b's reach."""
    _check_compat(a, b)
    acols = a.cols
    cols = {j: acols[k] for j, k in b.cols.items() if k in acols}
    return TruncOp(a.model, a.n, cols,
                   min(b.band, a.band - b.reach), a.reach + b.reach)


def diagonal_part(a: TruncOp) -> TruncOp:
    """Compression to the diagonal: keep only the fixed points."""
    cols = {j: j for j, i in a.cols.items() if i == j}
    return TruncOp(a.model, a.n, cols, a.band, 0)


def _band_width(model, band) -> int:
    """Number of basis columns inside a band: bases are sorted length
    first, so those columns are a prefix, empty when the band is below 0."""
    return len(model.enumerate_p(band)) if band >= 0 else 0


def equal_on_band(a: TruncOp, b: TruncOp) -> bool:
    """Entrywise equality restricted to columns inside both bands; map
    equality when those bands cover the truncated basis."""
    _check_compat(a, b)
    if min(a.band, b.band) >= a.n:
        return a.cols == b.cols
    width = _band_width(a.model, min(a.band, b.band))
    return all(a.cols.get(j) == b.cols.get(j)
               for j in a.cols.keys() | b.cols.keys() if j < width)


def check_projection_identity(lattice, n):
    """P_x P_y = P_{x n y} on every ordered pair of nonempty lattice ideals.

    Each ideal's mask is built once from its members; the right side is the
    mask of the ideal the token route put in ``intersect_table``.  Returns
    ``(pairs checked, whether every pair agrees on the band)``.
    """
    masks = [projection_op(x, n) for x in lattice.ideals]
    table = lattice.intersect_table
    idxs = lattice.nonempty_indices()
    ok = all(equal_on_band(mul_op(masks[i], masks[j]), masks[table[(i, j)]])
             for i in idxs for j in idxs)
    return len(idxs) ** 2, ok


def _column_sums(weighted):
    """``({column: sum}, zero)``: the exact sum of the coefficients at each
    column of ``(coefficient, columns)`` pairs, added as integers over the
    common denominator; each distinct sum is made a rational once."""
    weighted = [(Fraction(c), cols) for c, cols in weighted]
    den = math.lcm(*(c.denominator for c, _ in weighted))
    sums = {}
    for c, cols in weighted:
        k = c.numerator * (den // c.denominator)
        for j in cols:
            sums[j] = sums.get(j, 0) + k
    value = {x: Fraction(x, den) for x in {0, *sums.values()}}
    return {j: value[x] for j, x in sums.items()}, value[0]


def cond_expectation(terms) -> dict:
    """Diagonal expectation of a word combination, computed two ways.

    Each term is ``(c, v, op)`` with ``op`` the matrix of the word v, built
    by the caller.  Route one keeps exactly the terms with trivial grading;
    route two compresses a matrix to its diagonal.  Both are linear, so
    each term's diagonal must equal its grading filter on the term's band;
    disagreement signals a grading bug and raises.  Returns route one as a
    diagonal ``{column: nonzero coefficient}``: the coefficients of the
    trivially graded terms, summed over every stored column of their
    matrices.
    """
    if not terms:
        raise ModelError("empty term list")
    model = terms[0][1].model
    kept = []
    for c, v, op in terms:
        unit_graded = not v.is_zero and v.grading == model.unit
        if not equal_on_band(op if unit_graded else zero_op(model, op.n),
                             diagonal_part(op)):
            raise GradingMismatch("grading filter and diagonal compression disagree")
        if unit_graded:
            kept.append((c, op.cols))
    return {j: x for j, x in _column_sums(kept)[0].items() if x}


# ---------------------------------------------------------------------------
# Frame spaces and compressed norms

@dataclass(frozen=True, eq=False)
class CovarianceFrame:
    """Finite frame set F in the group, with per-basis admissibility flags.

    A basis point r is admissible when, for every g in F whose translate
    g*P meets r*P, the point r already lies in g*P.  ``n`` is the
    truncation; ``basis`` and the flags cover the points of length <= n, or
    only those inside a probe's guard band when ``sc_limit_probe`` built the
    frame.  Bases are sorted length first, so a band's basis is a prefix of
    the truncation's and positions agree.
    """

    model: object
    n: int
    f_set: tuple
    basis: tuple
    base_flags: tuple

    def slice_indices(self):
        """Basis positions of the frame space: the admissible points."""
        return tuple(j for j, ok in enumerate(self.base_flags) if ok)


def build_frame(model, f_elems, n) -> CovarianceFrame:
    """Flags and slices for a finite frame set of group elements: a basis
    point is admissible when it is admissible for each element."""
    f_set = tuple(sorted({model.validate(g) for g in f_elems}, key=model.sort_key))
    basis = model.basis(n)[0]
    flags = [True] * len(basis)
    for g in f_set:
        g_inv = model.inv(g)
        for j, r in enumerate(basis):
            if flags[j]:
                u = model.mul(g_inv, r)
                flags[j] = not model.meets_p(u) or model.in_p(u)
    return CovarianceFrame(model, n, f_set, basis, tuple(flags))


def compressed_matrix(terms, frame: CovarianceFrame):
    """Base-slice compression of a trivially-graded word combination.

    Returns (diagonal, labels): the matrix is diagonal, so only its
    diagonal is built, one rational per admissible basis point surviving
    the guard band.  A term's entries are its domain's members inside the
    band, read as cached positions.
    """
    model = frame.model
    if any(not v.is_zero and v.grading != model.unit for _, v in terms):
        raise ModelError("frame compression expects trivially graded terms")
    band = frame.n - max((word_reach(v) for _, v in terms), default=0)
    width = _band_width(model, band)
    labels = [j for j in frame.slice_indices() if j < width]
    if not labels:
        raise BandExhausted("no admissible basis points inside the guard band")
    sums, zero = _column_sums((c, model.positions(v.dom.exact, band))
                              for c, v in terms if not v.is_zero)
    return [sums.get(j, zero) for j in labels], labels


def sc_norm(terms, frame: CovarianceFrame):
    """Enclosure of the compressed operator norm.

    Trivially graded combinations act diagonally, so the norm is the exact
    maximum absolute diagonal value, returned as a width-zero enclosure.
    """
    diagonal, _ = compressed_matrix(terms, frame)
    value = max(map(abs, set(diagonal)))
    return value, value


@dataclass(frozen=True)
class ScProbeReport:
    """Norm sequence along a frame chain, with monotonicity observations.

    The verdict is evidence at the tested truncation, never a proof:
    "vanishing-evidence" when the final enclosure is below tolerance,
    "non-vanishing-evidence" when the final lower bound stays above
    tolerance without decreasing at the last step, else "inconclusive".
    """

    frames: tuple
    enclosures: tuple
    non_increasing: bool
    verdict: str
    band: int

    def to_json(self, model):
        return {
            "frames": [[model.render(g) for g in f] for f in self.frames],
            "enclosures": [[f"{lo.numerator}/{lo.denominator}",
                            f"{hi.numerator}/{hi.denominator}"]
                           for lo, hi in self.enclosures],
            "non_increasing": self.non_increasing,
            "verdict": self.verdict,
            "band": self.band,
        }


def sc_limit_probe(terms, f_chain, model, n) -> ScProbeReport:
    """Norms of ``terms`` along the frame chain at truncation n.  Only basis
    points inside the guard band are ever read, so the frames flag the
    band's basis only, each distinct element once per probe; ``build_frame``
    validates it then."""
    band = n - max((word_reach(v) for _, v in terms), default=0)
    if band < 0:
        raise BandExhausted("no admissible basis points inside the guard band")
    basis = model.basis(band)[0]
    element_flags = {}   # by repr: True equals 1 but is no normal form
    enclosures, frames = [], []
    for f_elems in f_chain:
        for g in f_elems:
            if repr(g) not in element_flags:
                element_flags[repr(g)] = build_frame(model, [g], band).base_flags
        f_set = tuple(sorted(set(f_elems), key=model.sort_key))
        flags = map(all, zip([True] * len(basis),
                             *(element_flags[repr(g)] for g in f_set)))
        frame = CovarianceFrame(model, n, f_set, basis, tuple(flags))
        enclosures.append(sc_norm(terms, frame))
        frames.append(f_set)
    non_increasing = all(enclosures[k + 1][1] <= enclosures[k][1] or
                         enclosures[k + 1][0] <= enclosures[k][1]
                         for k in range(len(enclosures) - 1))
    last_lo, last_hi = enclosures[-1]
    if last_hi <= SC_TOL:
        verdict = "vanishing-evidence"
    elif last_lo > SC_TOL and (len(enclosures) == 1 or last_lo >= enclosures[-2][0]):
        verdict = "non-vanishing-evidence"
    else:
        verdict = "inconclusive"
    return ScProbeReport(tuple(frames), tuple(enclosures),
                         non_increasing, verdict, band)


def default_f_chain(model, gradings, depth):
    """Balls of increasing radius in the group, intersected with the
    realized gradings (plus the unit); a cofinal, reproducible choice."""
    pool = sorted(set(gradings) | {model.unit},
                  key=lambda g: (model.length(g), g))
    return [tuple(g for g in pool if model.length(g) <= rho)
            for rho in range(depth + 1)]


def generator_covariance_terms(model):
    """The inclusion-exclusion defect of the generator masks: the
    alternating sum over subsets S of the generators of the diagonal word
    of the intersection of s*P over S."""
    terms = []
    gens = list(model.generators)
    for k in range(len(gens) + 1):
        for subset in itertools.combinations(gens, k):
            ideal = full_ideal(model)
            for s in subset:
                ideal = intersect(ideal, from_trace(
                    model, WordTrace(((model.unit, s),))))
            terms.append((Fraction(-1) ** k, invsgp.idempotent_vword(ideal)))
    return terms
