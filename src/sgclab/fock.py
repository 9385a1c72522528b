"""Truncated matrix realization of the left shift calculus.

Operators act on the span of the submonoid elements of length <= n.  A
word's matrix is the compression of the true operator, so single-word
entries are exact everywhere; what truncation can corrupt is composition.
Every operator therefore carries a guard band: ``band`` is the largest
length b such that applying the operator to a basis vector of length <= b
agrees with the true (untruncated) action, and ``reach`` bounds how far the
operator can push support lengths upward.  Multiplying operators shrinks
the band by the inner factor's reach; identities are asserted only inside
the surviving band, so truncation artifacts never masquerade as algebraic
facts.

An operator is stored as two parallel ascending tuples, its columns
``dom`` and the row of each one ``ran``; words, ideal masks and their
products are all of this form.  A word maps its domain ideal onto its
range ideal by x -> g*x, keeping ``Model.sort_key`` order, so its matrix
is the two sides' cached basis positions (``Model.positions``) cut to the
shorter one, and a mask pairs its positions with themselves.  A product
is map composition built only on the columns inside its band, the only
ones a check reads; bases are sorted length first, so those columns are a
prefix of ``dom``, and every check reads a band through ``_in_band``.

Each matrix is built once per check, and only where the check reads it.
The projection identity builds one mask per lattice ideal and intersects
their column sets pairwise: a product of two masks is the mask on the
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

import bisect
import itertools
import math
import operator
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

    Column ``dom[k]`` holds its one unit entry in row ``ran[k]``; absent
    columns are zero.  ``dom`` is strictly ascending and ``ran`` ascending,
    of the same length: a word's shift keeps the listing order from its
    domain onto its range, and composition keeps it.  The tuples are never
    mutated, so operators share them with the model's position cache.
    ``band`` and ``reach`` implement the guard-band discipline described in
    the module docstring.
    """

    model: object
    n: int
    dom: tuple               # columns, strictly ascending
    ran: tuple               # row of each column, ascending
    band: int
    reach: int

    def triplets(self):
        return list(zip(self.ran, self.dom, itertools.repeat(1)))

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
    return TruncOp(ideal.model, n, pos, pos, n, 0)


def word_reach(v) -> int:
    return 0 if v.is_zero else sum(v.model.length(q) for _, q in v.trace.pairs)


def rep_vword(v, n) -> TruncOp:
    """Compression of a word's partial shift to the truncated basis: the
    domain's members of length <= n paired in order with the range's, the
    two sides' cached basis positions cut to the shorter one."""
    reach = word_reach(v)
    if reach > n:
        raise BandExhausted(f"word reach {reach} exceeds truncation {n}")
    model = v.model
    dom, ran = model.positions(v.dom, n), model.positions(v.ran, n)
    k = min(len(dom), len(ran))
    return TruncOp(model, n, dom[:k], ran[:k], n - reach, reach)


def _check_compat(a: TruncOp, b: TruncOp):
    if a.model is not b.model or a.n != b.n:
        raise ModelError("operators live on different truncations")


def _in_band(op: TruncOp, band):
    """``(dom, ran)`` of the columns of ``op`` inside a band of at least 0,
    those below the band's basis size; a slice that keeps every column is
    the stored tuple itself."""
    k = bisect.bisect_left(op.dom, len(op.model.enumerate_p(band)))
    return op.dom[:k], op.ran[:k]


def mul_op(a: TruncOp, b: TruncOp) -> TruncOp:
    """a * b, the composite map, with band shrunk by b's reach, built on
    the columns inside that band only.  There b's image has length at most
    band + b.reach <= a.band, inside a's band, so the stored columns are
    exact; a band below 0 certifies nothing and raises."""
    _check_compat(a, b)
    band = min(b.band, a.band - b.reach)
    if band < 0:
        raise BandExhausted(f"product band {band} is below 0")
    dom, mid = _in_band(b, band)
    m = bisect.bisect_right(a.dom, mid[-1]) if mid else 0
    arow = dict(zip(a.dom[:m], a.ran[:m]))
    hit = list(map(arow.__contains__, mid))
    return TruncOp(a.model, a.n, tuple(itertools.compress(dom, hit)),
                   tuple(map(arow.__getitem__, itertools.compress(mid, hit))),
                   band, a.reach + b.reach)


def equal_on_band(a: TruncOp, b: TruncOp) -> bool:
    """Entrywise equality restricted to columns inside both bands."""
    _check_compat(a, b)
    band = min(a.band, b.band)
    return _in_band(a, band) == _in_band(b, band)


def check_projection_identity(lattice, n):
    """P_x P_y = P_{x n y} on every ordered pair of nonempty lattice ideals.

    Each ideal's mask is built once from its members, and its column set
    taken once.  A mask is diagonal with band n and reach 0, so a product
    of two masks is the mask on the intersection of their column sets, and
    it equals a mask exactly when that intersection is the mask's column
    set.  The right side is the mask of the ideal the token route put in
    the lattice's ``meet`` rows.  Returns ``(pairs checked, whether every
    pair agrees)``.
    """
    keys = [frozenset(projection_op(x, n).dom) for x in lattice.ideals]
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
        dom, ran = _in_band(op, op.band)
        if not v.is_zero and v.grading == v.model.unit:
            if dom != ran:
                return False
        elif any(map(operator.eq, dom, ran)):
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
    word combination, ``diagonal`` being its ``compressed_matrix`` and
    ``frame`` built on the basis of the diagonal's band.

    Such a combination acts diagonally, so the norm is the exact maximum
    absolute diagonal value over the frame's admissible columns inside the
    guard band, returned as a width-zero enclosure.  The values are read
    largest first, and the norm is the first one whose column is
    admissible.  When none is, the norm is 0 if some other column of the
    band is admissible, found by a search that stops at the first; with no
    admissible column at all it raises.
    """
    for j, x in diagonal[0].items():
        if frame.admissible(j):
            return abs(x), abs(x)
    if any(map(frame.admissible, range(len(frame.basis)))):
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
