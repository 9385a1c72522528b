"""Words of isometries realized as partial bijections of the submonoid.

A word with trace [(p1, q1), ..., (pn, qn)] acts on basis points by
applying, right to left, multiplication by q_i and division by p_i; the
composite is the partial bijection x -> g * x where g is the grading
p1^-1 q1 ... pn^-1 qn, defined on the domain ideal and landing in the range
ideal.  The range ideal is the ideal the trace denotes; the domain ideal is
the ideal of the starred trace.  A word keeps its grading and the exact
tokens of its domain and range ideals; a side is wrapped in a
``ConstructibleIdeal`` only where ``cli`` writes it into the report.
``fock.rep_vword`` builds its matrix by zipping the cached basis positions
of the domain's members with those of the range's (``Model.positions``),
and tests no point for membership.  Nonzero words are determined by the
pair (grading, domain token): on a common nonempty domain the actions
x -> g1*x and x -> g2*x agree only for g1 == g2, because the ambient group
cancels.

Composites are computed on ideal tokens, not on traces: the domain of v*w
is w's pullback of dom v and its range is v's image of ran w, each one
``walk`` from a token at hand, whose steps the model caches.  The
concatenated trace is kept only as provenance, for reports and guard
bands, and the enumeration builds it only for a word it keeps.

The zero word absorbs composition and carries no grading or trace; every
nonzero word has a non-empty domain.  Like an ideal, a word carries no
radius: the report chooses the one it lists members up to.  This module
returns plain data; the report's forms are all in ``cli``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ideals as ideals_mod
from .ideals import ConstructibleIdeal, WordTrace, walk
from .models import EMPTY, ModelError


@dataclass(frozen=True)
class VWord:
    model: object
    trace: object           # WordTrace, or None for the canonical zero
    grading: object          # group element; None on the zero word
    dom: object              # domain token: walk of the starred trace
    ran: object              # range token: walk of the trace

    @property
    def is_zero(self):
        return self.trace is None

    def is_idempotent(self):
        return self.is_zero or (self.grading == self.model.unit
                                and self.dom == self.ran)

    def dedup_key(self):
        if self.is_zero:
            return ("zero",)
        return (self.grading, self.dom)


def zero_vword(model) -> VWord:
    return VWord(model, None, None, EMPTY, EMPTY)


def _word(model, trace, grading, dom, ran) -> VWord:
    """The word of ``trace`` from its domain and range tokens; the zero
    word when they are empty."""
    if dom == EMPTY or ran == EMPTY:
        return zero_vword(model)
    return VWord(model, trace, grading, dom, ran)


def make_vword(model, trace) -> VWord:
    """Build the word of a trace: its range is the walk of the trace from
    the full ideal, its domain that of the starred trace."""
    if not isinstance(trace, WordTrace):
        trace = WordTrace.make(model, trace)
    full = model.exact_full()
    return _word(model, trace, trace.grading(model),
                 walk(model, trace.star().pairs, full),
                 walk(model, trace.pairs, full))


def _tokens(v, w):
    """``(grading, dom, ran)`` of v after w: domain w^-1(dom v), range
    v(ran w), grading g_v g_w; None for the zero word, which absorbs.  The
    domain is walked first, and the range only when it is not empty."""
    if v.is_zero or w.is_zero:
        return None
    model = v.model
    dom = walk(model, w.trace.star().pairs, v.dom)
    if dom == EMPTY:
        return None
    ran = walk(model, v.trace.pairs, w.ran)
    if ran == EMPTY:
        return None
    return model.mul(v.grading, w.grading), dom, ran


def _composite_trace(v, w):
    """The provenance trace of v after w: v's pairs, then w's."""
    return WordTrace(v.trace.pairs + w.trace.pairs)


def compose(v: VWord, w: VWord) -> VWord:
    """v after w, its tokens from ``_tokens`` and its trace from
    ``_composite_trace``; the zero word absorbs."""
    if v.model is not w.model:
        raise ModelError("compose expects words over the same model")
    got = _tokens(v, w)
    if got is None:
        return zero_vword(v.model)
    return _word(v.model, _composite_trace(v, w), *got)


def star(v: VWord) -> VWord:
    if v.is_zero:
        return v
    return VWord(v.model, v.trace.star(), v.model.inv(v.grading),
                 v.ran, v.dom)


def vword_eq(v: VWord, w: VWord) -> bool:
    """Equality of the realized partial bijections: ``dedup_key`` encodes
    zero and, for nonzero words, (grading, domain token)."""
    if v.model is not w.model:
        raise ModelError("vword_eq expects words over the same model")
    return v.dedup_key() == w.dedup_key()


def idempotent_vword(x: ConstructibleIdeal) -> VWord:
    """The diagonal word of an ideal, x as both domain and range; its
    provenance trace is trace(x) followed by its star."""
    if x.trace is None:
        return zero_vword(x.model)
    trace = WordTrace(x.trace.pairs + x.trace.star().pairs)
    return _word(x.model, trace, x.model.unit, x.exact, x.exact)


def semilattice(lattice) -> tuple:
    """Multiplication table of the diagonal words over a closed lattice,
    as rows: ``idempotent_vword`` of ideal i times that of ideal j is the
    word of ideal ``[i][j]``, so this is the lattice's own meet rows."""
    return lattice.meet


@dataclass(frozen=True, eq=False)
class VWordFamily:
    """Deduplicated enumeration of words up to a trace-length cap.

    ``members[0]`` is the identity.  ``zero`` is the canonical zero word
    when some enumerated trace collapsed (None otherwise).  ``by_grading``
    groups member indices by grading.  ``duplicates`` counts the nonzero
    traces whose word a shorter or earlier trace already reached, up to
    200.
    """

    model: object
    members: tuple
    zero: object
    by_grading: dict
    duplicates: int
    params: dict = field(default_factory=dict)

    def gradings(self):
        return tuple(self.by_grading.keys())


def enumerate_vwords(model, max_trace_len, gen_len, radius,
                     cap=20000) -> VWordFamily:
    """All distinct words with traces of at most ``max_trace_len`` pairs
    over submonoid elements of length <= gen_len.

    Traces are visited breadth first, pairs in order; a word's
    representative is the first trace that reached it.  Composition
    respects equality of words and the zero word absorbs, so the words one
    pair past any trace are those one pair past its word's representative:
    only representatives are extended, each on tokens with the word of one
    pair (``_tokens``), at O(words x pairs) compositions instead of
    O(pairs^depth) trace evaluations.  ``(grading, dom)``, the
    ``dedup_key``, identifies a word exactly and is looked up first; the
    composite trace and word are built only for a new key.
    ``duplicates`` is then counted from the table of representative steps:
    every nonzero trace but each member's first is a duplicate.
    """
    cand = model.enumerate_p(gen_len)
    pairs = [(p, q) for p in cand for q in cand]

    unit = make_vword(model, WordTrace(()))
    members, keys = [unit], {unit.dedup_key(): 0}
    by_grading = {unit.grading: [0]}
    zero = None

    def visit(v, one):
        """Member index of v after ``one``, None for zero; records a new
        word."""
        nonlocal zero
        got = _tokens(v, one)
        if got is None:
            if zero is None:
                zero = zero_vword(model)
            return None
        key = got[:2]
        k = keys.get(key)
        if k is None:
            if len(members) >= cap:
                raise ideals_mod.CapExceeded(f"vword cap {cap} exceeded")
            k = keys[key] = len(members)
            by_grading.setdefault(key[0], []).append(k)
            members.append(_word(model, _composite_trace(v, one), *got))
        return k

    ones = [make_vword(model, WordTrace((pq,))) for pq in pairs]
    # step[i][j]: member index of member i's representative extended by
    # pairs[j]; rows exist for the members found below the last depth
    step = []
    for _ in range(max_trace_len):
        for v in members[len(step):]:
            step.append([visit(v, one) for one in ones])

    # nonzero traces of the current length per member; zero stays zero
    ways = {0: 1}
    traces = 0
    for _ in range(max_trace_len):
        nxt = {}
        for i, count in ways.items():
            for j in step[i]:
                if j is not None:
                    nxt[j] = nxt.get(j, 0) + count
        traces += sum(nxt.values())
        ways = nxt

    return VWordFamily(
        model=model,
        members=tuple(members),
        zero=zero,
        by_grading={g: tuple(ix) for g, ix in by_grading.items()},
        duplicates=min(traces - (len(members) - 1), 200),
        params={"max_trace_len": max_trace_len, "gen_len": gen_len,
                "radius": radius},
    )
