"""Exact calculus and enumeration of constructible right ideals.

A trace [(p1, q1), ..., (pn, qn)] denotes the right ideal obtained from the
full submonoid by alternately multiplying on the left by q_i and pulling
back along p_i, evaluated right to left: start with P, apply q_n, pull back
along p_n, and so on up to q_1, p_1.  The family of all such ideals,
together with the empty set, is closed under finite intersections via the
doubling trick: if y has trace t then y n x has trace t + reversed/starred
t + trace(x).

An ideal is its model's canonical exact token.  ``walk`` is the one
evaluator: it carries a token through the pairs of a trace, so the ideal of
a trace is the walk from the full ideal's token, and one more pair, an
intersection or a composite word is computed from tokens already at hand.
Each step is keyed on its pair and token in the model's step cache, so a
run computes each distinct step once.
The trace an ideal keeps is provenance only: the report renders it and
guard bands read it, but it is never evaluated again.  An ideal carries
no radius either: a truncation is chosen where members are listed, by
the report's members prefix and by the rank oracle's rows.  This module
returns plain data; the report's forms are all in ``cli``.

Enumeration is breadth-first on trace length and deterministic; the lattice
accumulator is the only mutable state during a build and is confined to a
single thread (ideal values themselves are immutable).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exactla import bareiss_rank
from .models import EMPTY, ModelError


class CapExceeded(RuntimeError):
    """An enumeration hit its ideal-count or size cap."""


@dataclass(frozen=True)
class WordTrace:
    """Alternating (p_i, q_i) word data; all entries lie in the submonoid."""

    pairs: tuple

    @staticmethod
    def make(model, pairs):
        """Validate raw (p, q) pairs; every other WordTrace is built from
        elements already in normal form."""
        pairs = tuple((p, q) for p, q in pairs)
        for p, q in pairs:
            if not (model.in_p(model.validate(p))
                    and model.in_p(model.validate(q))):
                raise ModelError("trace entries must lie in the submonoid")
        return WordTrace(pairs)

    def star(self):
        """Reverse the word and swap each (p, q); the trace of the adjoint,
        built once per trace and kept, and linked back, so that
        ``t.star().star() is t``."""
        got = self.__dict__.get("_star")
        if got is None:
            got = WordTrace(tuple((q, p) for p, q in reversed(self.pairs)))
            object.__setattr__(got, "_star", self)
            object.__setattr__(self, "_star", got)
        return got

    def grading(self, model):
        """p1^-1 q1 ... pn^-1 qn as a group element: a left fold of the
        pair factors p^-1 q, each kept in the model's factor cache."""
        g, factors = model.unit, model._factor_cache
        for pair in self.pairs:
            f = factors.get(pair)
            if f is None:
                f = factors[pair] = model.mul(model.inv(pair[0]), pair[1])
            g = model.mul(g, f)
        return g


class ConstructibleIdeal:
    """A right ideal: its canonical exact token ``exact``, with the trace
    that built it as provenance (``trace is None`` marks the canonical
    empty ideal).  The token alone decides the ideal, and a word carries
    only its sides' tokens: an ideal object is built for the lattice's
    nodes and where ``cli`` renders a word's sides."""

    __slots__ = ("model", "trace", "exact")

    def __init__(self, model, trace, exact):
        self.model = model
        self.trace = trace
        self.exact = exact

    def is_empty(self) -> bool:
        return self.exact == EMPTY

    def members_upto(self, n):
        """The members of length <= n, in ``sort_key`` order."""
        return self.model.exact_members_upto(self.exact, n)

    def members_prefix(self, radius, limit):
        """``members_upto(radius)[:limit]``, cut from ``prefix_listing``."""
        return self.prefix_listing(radius, limit)[1][:limit]

    def prefix_listing(self, radius, limit):
        """``(r, members_upto(r))`` for the first r of 0, 1, 3, 7, ... up to
        the radius whose listing has ``limit`` members, else r = radius.
        Members come length first, so each shorter listing is a prefix of
        the longer ones; listing starts only once P itself has ``limit``
        elements that short, as no ideal has more."""
        if self.is_empty():
            return radius, []
        r = 0
        while r < radius and len(self.model.enumerate_p(r)) < limit:
            r = 2 * r + 1
        while True:
            r = min(r, radius)
            mem = self.members_upto(r)
            if len(mem) >= limit or r >= radius:
                return r, mem
            r = 2 * r + 1


def walk(model, pairs, tok):
    """Carry a token through (p, q) pairs, right to left: multiply on the
    left by q, then pull back along p.  From ``exact_full()`` this is the
    ideal the pairs denote; from the token of an ideal y it is the image
    of y under the word of the pairs.  Each step is computed once per
    model instance and kept in its step cache."""
    steps = model._step_cache
    for pq in reversed(pairs):
        key = (pq, tok)
        got = steps.get(key)
        if got is None:
            p, q = pq
            got = model.exact_preimage(p, model.exact_left_mul(q, tok))
            steps[key] = got
        tok = got
    return tok


def full_ideal(model) -> ConstructibleIdeal:
    return from_trace(model, WordTrace(()))


def empty_ideal(model) -> ConstructibleIdeal:
    return ConstructibleIdeal(model, None, EMPTY)


def from_trace(model, trace) -> ConstructibleIdeal:
    """The ideal a trace denotes: its walk from the full ideal."""
    return ConstructibleIdeal(model, trace,
                              walk(model, trace.pairs, model.exact_full()))


def intersect(x: ConstructibleIdeal, y: ConstructibleIdeal) -> ConstructibleIdeal:
    """x n y, the canonical empty ideal when disjoint; the provenance trace
    is trace(y) + trace(y)* + trace(x)."""
    if x.model is not y.model:
        raise ModelError("intersect expects ideals over the same model")
    tok = x.model.exact_intersect(x.exact, y.exact)
    if tok == EMPTY:
        return empty_ideal(x.model)
    pairs = y.trace.pairs + y.trace.star().pairs + x.trace.pairs
    return ConstructibleIdeal(x.model, WordTrace(pairs), tok)


@dataclass(frozen=True, eq=False)
class IdealLattice:
    """Deduplicated, intersection-closed ideal family with containment data.

    ``ideals[0]`` is the full ideal; the canonical empty ideal is always
    present.  ``depths[i]`` is the trace length at which ideal i first
    appeared (intersection-closure additions inherit the max of their
    operands).  ``meet[i][j]`` is the index of ideal i n ideal j, one row
    per ideal, and the order is read off it: i is contained in j iff their
    meet is i.  ``up[i]`` holds that order as a bitmask, bit j set iff
    ideal i is contained in ideal j, and ``down[j]`` its transpose, bit i
    set iff ideal i is contained in ideal j.
    """

    model: object
    ideals: tuple
    depths: tuple
    radius: int
    empty_index: int
    up: tuple
    down: tuple
    hasse: tuple
    meet: tuple
    params: dict = field(default_factory=dict)

    def nonempty_indices(self):
        return tuple(i for i, x in enumerate(self.ideals) if i != self.empty_index)


def _bits(mask):
    """The set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _hasse(up):
    """Covering pairs (i, j), ascending: the covers of i are the ideals
    strictly above i minus those strictly above one of them."""
    strict = [m & ~(1 << i) for i, m in enumerate(up)]
    edges = []
    for i, above in enumerate(strict):
        covers = above
        for k in _bits(above):
            covers &= ~strict[k]
        edges.extend((i, j) for j in _bits(covers))
    return tuple(edges)


def enumerate_ideals(model, max_trace_len, gen_len, radius,
                     cap=10000) -> IdealLattice:
    """Breadth-first enumeration of ideals reachable by traces of at most
    ``max_trace_len`` pairs over submonoid elements of length <= gen_len,
    deduplicated and closed under intersection.  Tokens come first: the
    search walks each pair one step on a frontier ideal's token, and the
    closure meets two nodes' tokens with ``exact_intersect``; either builds
    the trace and ideal only for a token it has not seen (a meet's trace is
    the doubling trick's, as in ``intersect``).  The closure's one pass
    fills both meet rows of a pair and sets containment as it goes: a meet
    equal to one operand puts it below the other."""
    cand = model.enumerate_p(gen_len)
    pairs = [(p, q) for p in cand for q in cand]

    ideals = [full_ideal(model), empty_ideal(model)]
    depths = [0, 0]
    keys = {ideals[0].exact: 0, ideals[1].exact: 1}

    def add(tok, trace, depth):
        if len(ideals) >= cap:
            raise CapExceeded(f"ideal cap {cap} exceeded")
        keys[tok] = len(ideals)
        ideals.append(ConstructibleIdeal(model, trace, tok))
        depths.append(depth)
        return keys[tok]

    frontier = [0]
    for depth in range(1, max_trace_len + 1):
        fresh = []
        for idx in frontier:
            base = ideals[idx]
            for pq in pairs:
                tok = walk(model, (pq,), base.exact)
                if tok not in keys:
                    trace = WordTrace((pq,) + base.trace.pairs)
                    fresh.append(add(tok, trace, depth))
        frontier = fresh
        if not frontier:
            break

    # close in rounds; each meets the pairs holding a new ideal, once each
    meet, up, down = [], [], []
    done = 0
    while done < len(ideals):
        m = len(ideals)
        for row in meet:
            row.extend([None] * (m - done))
        meet.extend([None] * m for _ in range(m - done))
        up.extend([0] * (m - done))
        down.extend([0] * (m - done))
        for i in range(m):
            x, row = ideals[i], meet[i]
            for j in range(max(i, done), m):
                y = ideals[j]
                tok = model.exact_intersect(x.exact, y.exact)
                k = keys.get(tok)
                if k is None:
                    trace = WordTrace(y.trace.pairs + y.trace.star().pairs
                                      + x.trace.pairs)
                    k = add(tok, trace, max(depths[i], depths[j]))
                row[j] = meet[j][i] = k
                if k == i:
                    up[i] |= 1 << j
                    down[j] |= 1 << i
                if k == j:
                    up[j] |= 1 << i
                    down[i] |= 1 << j
        done = m

    return IdealLattice(
        model=model,
        ideals=tuple(ideals),
        depths=tuple(depths),
        radius=radius,
        empty_index=1,
        up=tuple(up),
        down=tuple(down),
        hasse=_hasse(up),
        meet=tuple(map(tuple, meet)),
        params={"max_trace_len": max_trace_len, "gen_len": gen_len,
                "radius": radius, "cap": cap, "closed": True},
    )


@dataclass(frozen=True)
class IndependenceResult:
    status: str            # "independent" | "witness"
    witness: object = None  # index of the covered ideal
    parts: tuple = ()       # indices of the covering ideals
    detail: str = ""


def independence_test(lattice: IdealLattice) -> IndependenceResult:
    """Search for an ideal equal to a finite union of strictly smaller
    lattice members, decided exactly on the tokens."""
    model = lattice.model
    clear = 1 << lattice.empty_index
    for i in lattice.nonempty_indices():
        x = lattice.ideals[i]
        proper = list(_bits(lattice.down[i] & ~(clear | 1 << i)))
        if not proper:
            continue
        toks = [lattice.ideals[j].exact for j in proper]
        if model.exact_union_covers(x.exact, toks):
            kept = list(proper)
            for j in list(kept):
                rest = [lattice.ideals[k].exact for k in kept if k != j]
                if rest and model.exact_union_covers(x.exact, rest):
                    kept.remove(j)
            return IndependenceResult(
                "witness", witness=i, parts=tuple(kept),
                detail="ideal equals the union of strictly smaller members")
    return IndependenceResult(
        "independent",
        detail="no ideal is a finite union of strictly smaller members")


@dataclass(frozen=True)
class RankResult:
    status: str            # "full_rank" | "deficient" | "inconclusive"
    rank: int = 0
    nonempty: int = 0
    radius: int = 0
    detail: str = ""


def _membership_rank(model, rows_members):
    """Bareiss rank of the 0/1 matrix of the rows over their union, the
    columns in ``sort_key`` order."""
    columns = sorted(set().union(*rows_members), key=model.sort_key)
    return bareiss_rank([[int(c in mem) for c in columns]
                         for mem in rows_members])


def independence_rank_oracle(lattice: IdealLattice) -> RankResult:
    """Exact rational rank of the 0/1 membership matrix of the non-empty
    ideals over the truncation; full rank certifies linear independence of
    the characteristic functions.

    The rows are listed first only up to r0, the longest least member.
    When every ideal has a least member c_i within the radius and these
    are distinct, that short matrix has full rank: sorted by c_i, entry
    (i, j) = [c_j in x_i] can be 1 only when c_j >= c_i in ``sort_key``
    order, and the diagonal is all 1s, so the least-member columns alone
    form an upper unitriangular submatrix.  Its columns are those of the
    full matrix of length <= r0, and adding columns never lowers rank, so
    the full listing would read ``full_rank`` too; rows that differ up to
    r0 differ up to the radius.  Otherwise, or should Bareiss read less
    than full rank, the rows are listed up to the radius.  A listing
    already made at the length a pass reads is reused, not made again."""
    model, radius = lattice.model, lattice.radius
    idxs = lattice.nonempty_indices()
    n = len(idxs)
    listed = [lattice.ideals[i].prefix_listing(radius, 1) for i in idxs]

    def rows(upto):
        return [frozenset(mem if r == upto
                          else lattice.ideals[i].members_upto(upto))
                for i, (r, mem) in zip(idxs, listed)]
    least = [mem[:1] for _, mem in listed]
    if all(least) and len({m[0] for m in least}) == n:
        r0 = max(model.length(m[0]) for m in least)
        short = rows(r0)
        if _membership_rank(model, short) == n:
            return RankResult("full_rank", rank=n, nonempty=n, radius=radius)
        listed = [(r0, mem) for mem in short]
    rows_members = rows(radius)
    seen = {}
    for pos, mem in enumerate(rows_members):
        if mem in seen:
            return RankResult(
                "inconclusive", nonempty=n, radius=radius,
                detail=f"ideals {seen[mem]} and {idxs[pos]} agree within the radius")
        seen[mem] = idxs[pos]
    rank = _membership_rank(model, rows_members)
    status = "full_rank" if rank == n else "deficient"
    return RankResult(status, rank=rank, nonempty=n, radius=radius)


@dataclass(frozen=True)
class OreResult:
    status: str            # "ore_up_to" | "counterexample"
    level: int = 0
    pair: object = None


def ore_test(model, max_len) -> OreResult:
    """Decide pP n qP != empty for all p, q of length <= max_len, exactly
    on the tokens of the principal ideals."""
    full = model.exact_full()
    elems = model.enumerate_p(max_len)
    for i, p in enumerate(elems):
        xp = model.exact_left_mul(p, full)
        for q in elems[i:]:
            xq = model.exact_left_mul(q, full)
            if model.exact_intersect(xp, xq) == EMPTY:
                return OreResult("counterexample", level=max_len, pair=(p, q))
    return OreResult("ore_up_to", level=max_len)
