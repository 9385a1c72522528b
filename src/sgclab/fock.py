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
The projection identity builds one mask per lattice ideal and intersects
their key sets pairwise: a product of two masks is the mask on the
intersection.  The diagonal expectation has two computations, the
grading filter (keep exactly the unit-graded words) and the compression
of a matrix to its fixed columns.  Both are linear, so they agree on
every combination when they agree on each word, and the check compares
each word's grading with its matrix's fixed columns inside its guard
band, on word matrices the caller built; nothing is summed.

A word combination whose gradings are all trivial acts diagonally (a
nonzero grading moves every basis point, because the ambient group
cancels), so a frame-compressed norm is the exact maximum absolute
diagonal value over the frame's admissible points inside the guard band.
That diagonal does not depend on the frame: a norm probe computes it once,
reading each term's domain as its cached positions in the band, with
coefficients summed per column exactly, as integers over their common
denominator.  The probe then builds each frame on the band's basis; a
frame reads the values largest first and tests admissibility only until
its first admissible point, and the frames share one memo of those tests.
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
    cols = dict(zip(model.positions(v.dom, n), model.positions(v.ran, n)))
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

    Each ideal's mask is built once from its members, and its key set taken
    once.  A mask is diagonal with band n and reach 0, so a product of two
    masks is the mask on the intersection of their key sets, and it equals
    a mask exactly when that intersection is the mask's key set.  The right
    side is the mask of the ideal the token route put in the lattice's
    ``meet`` rows.  Returns ``(pairs checked, whether every pair agrees)``.
    """
    keys = [frozenset(projection_op(x, n).cols) for x in lattice.ideals]
    meet = lattice.meet
    idxs = lattice.nonempty_indices()
    ok = all(keys[i] & keys[j] == keys[meet[i][j]]
             for i in idxs for j in idxs)
    return len(idxs) ** 2, ok


def cond_expectation(words) -> bool:
    """Whether the two computations of the diagonal expectation agree.

    Each item is ``(v, op)`` with ``op`` the matrix of the word v, built by
    the caller.  The grading filter keeps a word exactly when its grading
    is the unit; the diagonal compression keeps a matrix's fixed columns.
    Both are linear, so they agree on every combination of the words when,
    for every word, its fixed columns inside its guard band are all of its
    columns there (unit grading) or none of them (any other grading).
    """
    for v, op in words:
        unit_graded = not v.is_zero and v.grading == v.model.unit
        width = _band_width(op.model, op.band)
        if any((i == j) != unit_graded
               for j, i in op.cols.items() if j < width):
            return False
    return True


# ---------------------------------------------------------------------------
# Frame spaces and compressed norms

@dataclass(frozen=True, eq=False)
class CovarianceFrame:
    """Finite frame set F in the group, its admissibility tested on demand.

    A basis point r is admissible when, for every g in F whose translate
    g*P meets r*P, the point r already lies in g*P.  ``basis`` lists the
    points inside the guard band of the probe that built the frame; bases
    are sorted length first, so it is a prefix of the truncation's basis
    and positions agree.  ``tests`` holds, per element keyed by its repr
    (True equals 1 but is no normal form), the element's inverse and the
    result of every point tested for it so far; the frames of one probe
    share it, so each (element, point) pair is tested at most once.
    """

    model: object
    f_set: tuple
    basis: tuple
    tests: dict              # repr(g) -> (g^-1, {position: admissible})

    def admissible(self, j) -> bool:
        """Whether basis point j is admissible for every element of F."""
        model, r = self.model, self.basis[j]
        for g in self.f_set:
            g_inv, seen = self.tests[repr(g)]
            ok = seen.get(j)
            if ok is None:
                u = model.mul(g_inv, r)
                ok = seen[j] = not model.meets_p(u) or model.in_p(u)
            if not ok:
                return False
        return True


def build_frame(model, f_elems, band, tests) -> CovarianceFrame:
    """The frame of a finite set of group elements over the basis of length
    <= ``band``, a norm probe's guard band.  An element is validated when
    it first enters ``tests``, the admissibility memo the probe shares
    among its frames."""
    f_set = set()
    for g in f_elems:
        if repr(g) not in tests:
            tests[repr(g)] = (model.inv(model.validate(g)), {})
        f_set.add(g)
    return CovarianceFrame(model, tuple(sorted(f_set, key=model.sort_key)),
                           model.basis(band)[0], tests)


def compressed_matrix(terms, model, n):
    """Diagonal of the compression of a trivially graded word combination
    at truncation n, which no frame changes.

    Returns ``(values, band)``: ``values`` maps each column inside the
    guard band ``band`` to its exact nonzero value, largest absolute value
    first (ties by column); every other column inside the band is 0.  A
    term's entries are its domain's members inside the band, read as
    cached positions, and its coefficient is added at each of them as an
    integer over the terms' common denominator; each distinct sum is made
    a rational once.  A negative band has no columns and is refused.
    """
    if any(not v.is_zero and v.grading != model.unit for _, v in terms):
        raise ModelError("frame compression expects trivially graded terms")
    band = n - max((word_reach(v) for _, v in terms), default=0)
    if band < 0:
        raise BandExhausted("no admissible basis points inside the guard band")
    weighted = [(Fraction(c), model.positions(v.dom, band))
                for c, v in terms if not v.is_zero]
    den = math.lcm(*(c.denominator for c, _ in weighted))
    sums = {}
    for c, cols in weighted:
        k = c.numerator * (den // c.denominator)
        for j in cols:
            sums[j] = sums.get(j, 0) + k
    value = {x: Fraction(x, den) for x in set(sums.values())}
    ranked = sorted(sums.items(), key=lambda jx: (-abs(jx[1]), jx[0]))
    return {j: value[x] for j, x in ranked if x}, band


def sc_norm(frame: CovarianceFrame, diagonal):
    """Enclosure of the compressed operator norm of a trivially graded
    word combination, ``diagonal`` being its ``compressed_matrix``.

    Such a combination acts diagonally, so the norm is the exact maximum
    absolute diagonal value over the frame's admissible columns inside the
    guard band, returned as a width-zero enclosure.  The values are read
    largest first, and the norm is the first one whose column is
    admissible.  When none is, the norm is 0 if some other column of the
    band is admissible, found by a search that stops at the first; with no
    admissible column at all it raises.
    """
    values, band = diagonal
    for j, x in values.items():
        if frame.admissible(j):
            return abs(x), abs(x)
    if any(map(frame.admissible, range(_band_width(frame.model, band)))):
        return Fraction(0), Fraction(0)
    raise BandExhausted("no admissible basis points inside the guard band")


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


def sc_limit_probe(terms, f_chain, model, n) -> ScProbeReport:
    """Norms of ``terms`` along the frame chain at truncation n.  The
    diagonal is computed once, before any frame is built.  Only points
    inside its guard band are ever read, so each frame is built on the
    band's basis, and the frames share one admissibility memo:
    ``build_frame`` validates each distinct element once per probe, and
    each (element, point) pair is tested at most once."""
    diagonal = compressed_matrix(terms, model, n)
    tests, frames, enclosures = {}, [], []
    for f_elems in f_chain:
        frames.append(build_frame(model, f_elems, diagonal[1], tests))
        enclosures.append(sc_norm(frames[-1], diagonal))
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
    return ScProbeReport(tuple(frame.f_set for frame in frames),
                         tuple(enclosures), non_increasing, verdict,
                         diagonal[1])


def default_f_chain(model, gradings, depth):
    """Balls of increasing radius in the group, intersected with the
    realized gradings (plus the unit); a cofinal, reproducible choice."""
    pool = sorted(set(gradings) | {model.unit}, key=model.sort_key)
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
