"""Words of isometries realized as partial bijections of the submonoid.

A word with trace [(p1, q1), ..., (pn, qn)] acts on basis points by
applying, right to left, multiplication by q_i and division by p_i; the
composite is the partial bijection x -> g * x where g is the grading
p1^-1 q1 ... pn^-1 qn, defined on the domain ideal and landing in the range
ideal.  The range ideal is the ideal the trace denotes; the domain ideal is
the ideal of the starred trace.  Nonzero words are determined by the pair
(grading, domain ideal): on a common nonempty domain the actions x -> g1*x
and x -> g2*x agree only for g1 == g2, because the ambient group cancels.

The zero word absorbs composition and carries no grading.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ideals as ideals_mod
from .ideals import ConstructibleIdeal, Undecided, WordTrace, from_trace
from .models import ModelError


@dataclass(frozen=True)
class VWord:
    model: object
    trace: object           # WordTrace, or None for the canonical zero
    grading: object          # group element; None on the zero word
    dom: ConstructibleIdeal
    ran: ConstructibleIdeal
    is_zero: bool

    def apply(self, x):
        """The partial bijection: g * x when x lies in the domain ideal."""
        if self.is_zero or not self.dom.contains(x):
            return None
        return self.model.mul(self.grading, x)

    def is_idempotent(self):
        if self.is_zero:
            return True
        if self.grading != self.model.unit:
            return False
        eq = ideals_mod.ideal_eq(self.dom, self.ran)
        return eq if eq is not True else True

    def dedup_key(self):
        if self.is_zero:
            return ("zero",)
        return (self.grading, self.dom.dedup_key())

    def render(self):
        return {
            "zero": self.is_zero,
            "trace": None if self.trace is None else self.trace.render(self.model),
            "grading": None if self.is_zero else self.model.render(self.grading),
            "dom": self.dom.render(),
            "ran": self.ran.render(),
        }


def zero_vword(model, radius=None) -> VWord:
    if radius is None:
        radius = model.default_radius
    empty = ideals_mod.empty_ideal(model, radius)
    return VWord(model, None, None, empty, empty, True)


def make_vword(model, trace, radius=None) -> VWord:
    """Build the word of a trace; collapses to the zero word when the
    domain ideal is certified empty."""
    if not isinstance(trace, WordTrace):
        trace = WordTrace.make(model, trace)
    if radius is None:
        radius = model.default_radius
    ran = from_trace(model, trace, radius)
    dom = from_trace(model, trace.star(), radius)
    if dom.is_empty() is True or ran.is_empty() is True:
        return zero_vword(model, radius)
    return VWord(model, trace, trace.grading(model), dom, ran, False)


def compose(v: VWord, w: VWord) -> VWord:
    """Concatenate traces; the zero word absorbs."""
    if v.model is not w.model:
        raise ModelError("compose expects words over the same model")
    if v.is_zero or w.is_zero:
        return zero_vword(v.model, min(v.dom.radius, w.dom.radius))
    return make_vword(v.model, WordTrace(v.trace.pairs + w.trace.pairs),
                      min(v.dom.radius, w.dom.radius))


def star(v: VWord) -> VWord:
    if v.is_zero:
        return v
    return VWord(v.model, v.trace.star(), v.model.inv(v.grading),
                 v.ran, v.dom, False)


def vword_eq(v: VWord, w: VWord):
    """Equality of the realized partial bijections.

    Nonzero words are compared by (grading, domain ideal); Undecided
    propagates from the ideal comparison.
    """
    if v.model is not w.model:
        raise ModelError("vword_eq expects words over the same model")
    if v.is_zero and w.is_zero:
        return True
    if v.is_zero != w.is_zero:
        other = w if v.is_zero else v
        empt = other.dom.is_empty()
        if empt is None:
            return Undecided(other.dom.radius)
        return empt  # an uncollapsed-but-empty word equals zero
    if v.grading != w.grading:
        return False
    return ideals_mod.ideal_eq(v.dom, w.dom)


def idempotent_vword(x: ConstructibleIdeal) -> VWord:
    """The diagonal word of an ideal: trace(x) followed by its star."""
    if x.trace is None:
        return zero_vword(x.model, x.radius)
    v = make_vword(x.model, WordTrace(x.trace.pairs + x.trace.star().pairs),
                   x.radius)
    return v


def semilattice(lattice) -> dict:
    """Multiplication table of the diagonal words over a closed lattice.

    Returns {"idempotents": [VWord per lattice index], "table": {(i, j): k}}
    with the table mirroring the lattice intersection table.
    """
    idems = []
    for i, x in enumerate(lattice.ideals):
        idems.append(idempotent_vword(x))
    table = dict(lattice.intersect_table)
    return {"idempotents": idems, "table": table}


@dataclass(frozen=True, eq=False)
class VWordFamily:
    """Deduplicated enumeration of words up to a trace-length cap.

    ``members[0]`` is the identity.  ``zero`` is the canonical zero word
    when some enumerated trace collapsed (None otherwise).  ``by_grading``
    groups member indices by grading.  ``eq_pairs`` logs (member_index,
    duplicate_trace) equalities detected during deduplication, capped.
    """

    model: object
    members: tuple
    zero: object
    by_grading: dict
    eq_pairs: tuple
    params: dict = field(default_factory=dict)

    def gradings(self):
        return tuple(self.by_grading.keys())

    def to_json(self):
        return {
            "members": [v.render() for v in self.members],
            "zero_seen": self.zero is not None,
            "gradings": [self.model.render(g) for g in self.gradings()],
            "equality_pairs_logged": len(self.eq_pairs),
            "params": self.params,
        }


def enumerate_vwords(model, max_trace_len, gen_len=None, radius=None,
                     cap=20000, eq_log_cap=200) -> VWordFamily:
    """All distinct words with traces of at most ``max_trace_len`` pairs
    over submonoid elements of length <= gen_len.

    Traces are visited breadth first, pairs in order; a word's
    representative is the first trace that reached it.  Composition
    respects equality of words and the zero word absorbs, so the words one
    pair past any trace are those one pair past its word's representative:
    only representatives are extended, at O(words x pairs) ``make_vword``
    calls instead of O(pairs^depth).  That needs ``dedup_key`` to identify
    a word exactly, so models without exact ideals are refused with
    ``ModelError``.  ``eq_pairs`` is then replayed from the table of
    representative steps, in the order the full walk over every trace
    would log it.
    """
    if not model.has_exact_ideals:
        raise ModelError(f"{model.name}: word enumeration needs exact ideals")
    if gen_len is None:
        gen_len = model.default_gen_len
    if radius is None:
        radius = model.default_radius
    cand = model.enumerate_p(gen_len)
    pairs = [(p, q) for p in cand for q in cand]

    members = []
    zero = None
    keys = {}
    by_grading = {}

    def visit(trace_pairs):
        """Member index of the trace's word, None for zero; records a new word."""
        nonlocal zero
        v = make_vword(model, WordTrace(trace_pairs), radius)
        if v.is_zero:
            if zero is None:
                zero = v
            return None
        key = v.dedup_key()
        got = keys.get(key)
        if got is None:
            if len(members) >= cap:
                raise ideals_mod.CapExceeded(f"vword cap {cap} exceeded")
            got = keys[key] = len(members)
            by_grading.setdefault(v.grading, []).append(got)
            members.append(v)
        return got

    visit(())
    # step[i][j]: member index of member i's representative extended by
    # pairs[j]; rows exist for the members found below the last depth
    step = []
    for _ in range(max_trace_len):
        for v in members[len(step):]:
            step.append([visit(v.trace.pairs + (pq,)) for pq in pairs])

    return VWordFamily(
        model=model,
        members=tuple(members),
        zero=zero,
        by_grading={g: tuple(ix) for g, ix in by_grading.items()},
        eq_pairs=_equality_log(pairs, step, max_trace_len, eq_log_cap),
        params={"max_trace_len": max_trace_len, "gen_len": gen_len,
                "radius": radius},
    )


def _equality_log(pairs, step, max_trace_len, eq_log_cap):
    """(member_index, duplicate_trace) for the first ``eq_log_cap`` traces,
    breadth first, whose word an earlier trace already reached.

    A trace's word is looked up in ``step``; it is new exactly when its
    index equals the count of words seen so far.  Traces through zero stay
    zero and are skipped, so each depth holds fewer than
    ``len(members) + eq_log_cap`` traces.
    """
    eq_pairs = []
    seen = 1
    frontier = [((), 0)]
    for _ in range(max_trace_len):
        nxt = []
        for tp, i in frontier:
            for pq, j in zip(pairs, step[i]):
                if j is None:
                    continue
                seq = tp + (pq,)
                if j < seen:
                    if len(eq_pairs) >= eq_log_cap:
                        return tuple(eq_pairs)
                    eq_pairs.append((j, WordTrace(seq)))
                else:
                    seen += 1
                nxt.append((seq, j))
        frontier = nxt
    return tuple(eq_pairs)
