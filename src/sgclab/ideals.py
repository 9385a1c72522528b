"""Exact calculus and enumeration of constructible right ideals.

A trace [(p1, q1), ..., (pn, qn)] denotes the right ideal obtained from the
full submonoid by alternately multiplying on the left by q_i and pulling
back along p_i, evaluated right to left: start with P, apply q_n, pull back
along p_n, and so on up to q_1, p_1.  The family of all such ideals,
together with the empty set, is closed under finite intersections via the
doubling trick: if y has trace t then y n x has trace t + reversed/starred
t + trace(x).

Every ideal carries both a truncated member set (exact within its radius)
and, when the model has the exact-ideal hook, a canonical exact token.  The
truncated tier exists so radius-limited models stay honest: equality of two
truncated ideals that merely agree within the radius is reported as
Undecided, never as True.

Enumeration is breadth-first on trace length and deterministic; the lattice
accumulator is the only mutable state during a build and is confined to a
single thread (ideal values themselves are immutable).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exactla import bareiss_rank
from .models import EMPTY, Model, ModelError


class CapExceeded(RuntimeError):
    """An enumeration hit its ideal-count or size cap."""


class UndecidedMembership(RuntimeError):
    """Membership query outside the trusted radius of a truncated ideal."""


@dataclass(frozen=True)
class Undecided:
    """Equality verdict when truncated data cannot certify an answer."""

    radius: int


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
        """Reverse the word and swap each (p, q); the trace of the adjoint."""
        return WordTrace(tuple((q, p) for p, q in reversed(self.pairs)))

    def grading(self, model):
        """p1^-1 q1 ... pn^-1 qn as a group element."""
        g = model.unit
        for p, q in self.pairs:
            g = model.mul(model.mul(g, model.inv(p)), q)
        return g

    def __len__(self):
        return len(self.pairs)

    def render(self, model):
        return [[model.render(p), model.render(q)] for p, q in self.pairs]


class ConstructibleIdeal:
    """A right ideal with defining trace, truncated members, and (when the
    model supports it) a canonical exact token.

    ``trace is None`` marks the canonical empty ideal.  ``members`` is exact
    within ``radius``: it contains every ideal element of length <= radius
    and nothing else.  With an exact token the member set is derived lazily
    from it; without one it is computed up front (the truncation then *is*
    the representation).
    """

    __slots__ = ("model", "trace", "radius", "exact", "_members")

    def __init__(self, model, trace, radius, exact=None, members=None):
        self.model = model
        self.trace = trace
        self.radius = radius
        self.exact = exact
        self._members = members
        if exact is None and members is None and trace is not None:
            raise ModelError("truncated ideals need a precomputed member set")

    @property
    def members(self) -> frozenset:
        if self._members is None:
            if self.exact is None:
                self._members = frozenset()
            else:
                self._members = frozenset(
                    self.model.exact_members_upto(self.exact, self.radius))
        return self._members

    def is_empty(self):
        """True / False when certified, None when the radius cannot tell."""
        if self.exact is not None:
            return self.exact == EMPTY
        if self.members:
            return False
        if self.trace is None:
            return True
        if self.radius >= self.model.empty_witness_bound(self.trace.pairs):
            return True
        return None

    def contains(self, a) -> bool:
        if self.exact is not None:
            return self.model.exact_contains(self.exact, a)
        if not self.model.in_p(a):
            return False
        if self.model.length(a) > self.radius:
            raise UndecidedMembership(
                f"element of length {self.model.length(a)} outside radius {self.radius}")
        return a in self.members

    def members_upto(self, n):
        """The members of length <= n.  Without an exact token this raises
        UndecidedMembership exactly when ``contains`` would on some
        submonoid element of length <= n."""
        if self.exact is not None:
            return self.model.exact_members_upto(self.exact, n)
        elems = self.model.enumerate_p(n)
        if elems and self.model.length(elems[-1]) > self.radius:
            raise UndecidedMembership(
                f"element of length {self.model.length(elems[-1])} outside "
                f"radius {self.radius}")
        return [a for a in self.members if self.model.length(a) <= n]

    def sorted_members(self):
        return sorted(self.members, key=self.model.sort_key)

    def dedup_key(self):
        if self.exact is not None:
            return ("x", self.exact)
        return ("t", self.radius, tuple(self.sorted_members()))

    def subset_of(self, other) -> bool:
        """Containment; exact when tokens exist, at-radius otherwise."""
        if self.exact is not None and other.exact is not None:
            return self.model.exact_subset(self.exact, other.exact)
        return self.members <= other.members

    def render(self, limit=20):
        mem = [self.model.render(a) for a in self.sorted_members()[:limit]]
        return {
            "trace": None if self.trace is None else self.trace.render(self.model),
            "radius": self.radius,
            "members_prefix": mem,
            "exact": repr(self.exact) if self.exact is not None else None,
            "empty": self.is_empty(),
        }


def full_ideal(model, radius) -> ConstructibleIdeal:
    return from_trace(model, WordTrace(()), radius)


def empty_ideal(model, radius) -> ConstructibleIdeal:
    exact = EMPTY if model.has_exact_ideals else None
    return ConstructibleIdeal(model, None, radius, exact, frozenset())


def _brute_members(model, trace, radius):
    # Working radius grows by the total pullback length so the final set is
    # exact within the requested radius.
    work = radius + sum(model.length(p) for p, _ in trace.pairs)
    cur = set(model.enumerate_p(work))
    trust = work
    for p, q in reversed(trace.pairs):
        lq = model.length(q)
        cur = {model.mul(q, x) for x in cur}
        cur = {y for y in cur if model.length(y) <= work}
        trust = min(work, trust + lq)
        nxt = set()
        for y in cur:
            x = model.divide(p, y)
            if x is not None:
                nxt.add(x)
        cur = nxt
        trust -= model.length(p)
    if trust < radius:
        raise ModelError("internal radius bookkeeping error")
    return frozenset(x for x in cur if model.length(x) <= radius)


def from_trace(model, trace, radius=None) -> ConstructibleIdeal:
    """Evaluate a trace right-to-left through the two primitives."""
    if radius is None:
        radius = model.default_radius
    if model.has_exact_ideals:
        tok = model.exact_full()
        for p, q in reversed(trace.pairs):
            tok = model.exact_left_mul(q, tok)
            tok = model.exact_preimage(p, tok)
        return ConstructibleIdeal(model, trace, radius, tok)
    members = _brute_members(model, trace, radius)
    return ConstructibleIdeal(model, trace, radius, None, members)


def left_mul(p, x: ConstructibleIdeal) -> ConstructibleIdeal:
    """The ideal p*x, trace extended by the pair (e, p)."""
    model = x.model
    if not model.in_p(model.validate(p)):
        raise ModelError("left_mul expects a submonoid element")
    if x.trace is None:
        return empty_ideal(model, x.radius)
    pairs = ((model.unit, p),) + x.trace.pairs
    return from_trace(model, WordTrace(pairs), x.radius)


def preimage(p, x: ConstructibleIdeal) -> ConstructibleIdeal:
    """The pullback {y in P : p*y in x}, trace extended by (p, e)."""
    model = x.model
    if not model.in_p(model.validate(p)):
        raise ModelError("preimage expects a submonoid element")
    if x.trace is None:
        return empty_ideal(model, x.radius)
    pairs = ((p, model.unit),) + x.trace.pairs
    return from_trace(model, WordTrace(pairs), x.radius)


def intersect(x: ConstructibleIdeal, y: ConstructibleIdeal) -> ConstructibleIdeal:
    """x n y with a constructible trace: trace(y) + trace(y)* + trace(x)."""
    if x.model is not y.model:
        raise ModelError("intersect expects ideals over the same model")
    if x.trace is None or y.trace is None:
        return empty_ideal(x.model, min(x.radius, y.radius))
    pairs = y.trace.pairs + y.trace.star().pairs + x.trace.pairs
    out = from_trace(x.model, WordTrace(pairs), min(x.radius, y.radius))
    if out.is_empty() is True:
        return empty_ideal(x.model, out.radius)
    return out


def ideal_eq(x: ConstructibleIdeal, y: ConstructibleIdeal):
    """True / False when certifiable, else Undecided(radius).

    Exact tokens are canonical, so token comparison decides.  Without
    tokens: equal traces decide, certified emptiness decides, a member-set
    difference within the shared radius refutes, and anything else is
    Undecided at the smaller radius.
    """
    if x.model is not y.model:
        raise ModelError("ideal_eq expects ideals over the same model")
    if x.exact is not None and y.exact is not None:
        return x.exact == y.exact
    if x.trace is not None and y.trace is not None and x.trace == y.trace:
        return True
    ex, ey = x.is_empty(), y.is_empty()
    if ex is True and ey is True:
        return True
    if (ex is True and ey is False) or (ex is False and ey is True):
        return False
    r = min(x.radius, y.radius)
    mx = {a for a in x.members if x.model.length(a) <= r}
    my = {a for a in y.members if y.model.length(a) <= r}
    if mx != my:
        return False
    return Undecided(r)


@dataclass(frozen=True, eq=False)
class IdealLattice:
    """Deduplicated ideal family with containment data.

    ``ideals[0]`` is the full ideal; the canonical empty ideal is always
    present.  ``depths[i]`` is the trace length at which ideal i first
    appeared (intersection-closure additions inherit the max of their
    operands).  ``subset[i][j]`` holds iff ideal i is contained in ideal j;
    for models without the exact hook this relation is at-radius only and
    ``tier`` says so.
    """

    model: object
    ideals: tuple
    depths: tuple
    radius: int
    empty_index: int
    subset: tuple
    hasse: tuple
    intersect_table: dict
    params: dict = field(default_factory=dict)

    @property
    def tier(self):
        return "exact" if self.model.has_exact_ideals else "band-limited"

    def nonempty_indices(self):
        return tuple(i for i, x in enumerate(self.ideals) if i != self.empty_index)

    def to_json(self):
        nodes = []
        for i, x in enumerate(self.ideals):
            node = x.render()
            node["id"] = i
            node["depth"] = self.depths[i]
            nodes.append(node)
        return {
            "model": self.model.config() if hasattr(self.model, "config") else self.model.name,
            "tier": self.tier,
            "radius": self.radius,
            "params": self.params,
            "nodes": nodes,
            "containment_hasse": [list(e) for e in self.hasse],
            "empty_index": self.empty_index,
        }


def _subset_matrix(ideals, empty_index):
    n = len(ideals)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(True)
            elif i == empty_index:
                row.append(True)
            elif j == empty_index:
                row.append(False)
            else:
                row.append(ideals[i].subset_of(ideals[j]))
        rows.append(tuple(row))
    return tuple(rows)


def _hasse(subset, empty_index):
    n = len(subset)
    edges = []
    for i in range(n):
        for j in range(n):
            if i == j or not subset[i][j] or subset[j][i]:
                continue
            direct = True
            for k in range(n):
                if k in (i, j):
                    continue
                if subset[i][k] and subset[k][j] and not subset[k][i] and not subset[j][k]:
                    direct = False
                    break
            if direct:
                edges.append((i, j))
    return tuple(edges)


def enumerate_ideals(model, max_trace_len, gen_len=None, radius=None,
                     cap=10000, close=True) -> IdealLattice:
    """Breadth-first enumeration of ideals reachable by traces of at most
    ``max_trace_len`` pairs over submonoid elements of length <= gen_len,
    deduplicated, optionally intersection-closed, with containment data."""
    if gen_len is None:
        gen_len = model.default_gen_len
    if radius is None:
        radius = model.default_radius
    cand = model.enumerate_p(gen_len)
    pairs = [(p, q) for p in cand for q in cand]

    ideals = [full_ideal(model, radius), empty_ideal(model, radius)]
    depths = [0, 0]
    keys = {ideals[0].dedup_key(): 0, ideals[1].dedup_key(): 1}

    def add(ideal, depth):
        key = ideal.dedup_key()
        got = keys.get(key)
        if got is not None:
            return got
        if len(ideals) >= cap:
            raise CapExceeded(f"ideal cap {cap} exceeded")
        keys[key] = len(ideals)
        ideals.append(ideal)
        depths.append(depth)
        return keys[key]

    frontier = [0]
    for depth in range(1, max_trace_len + 1):
        fresh = []
        for idx in frontier:
            base = ideals[idx]
            if base.trace is None:
                continue
            for p, q in pairs:
                new_pairs = ((p, q),) + base.trace.pairs
                cand_ideal = from_trace(model, WordTrace(new_pairs), radius)
                if cand_ideal.is_empty() is True:
                    cand_ideal = empty_ideal(model, radius)
                before = len(ideals)
                got = add(cand_ideal, depth)
                if got == before:
                    fresh.append(got)
        frontier = fresh
        if not frontier:
            break

    table = {}
    if close:
        changed = True
        while changed:
            changed = False
            snapshot = list(enumerate(ideals))
            for i, x in snapshot:
                for j, y in snapshot:
                    if j < i or (i, j) in table:
                        continue
                    z = intersect(x, y)
                    depth = max(depths[i], depths[j])
                    before = len(ideals)
                    k = add(z, depth)
                    table[(i, j)] = k
                    table[(j, i)] = k
                    if k == before:
                        changed = True
    for i in range(len(ideals)):
        table.setdefault((i, i), i)

    subset = _subset_matrix(ideals, 1)
    return IdealLattice(
        model=model,
        ideals=tuple(ideals),
        depths=tuple(depths),
        radius=radius,
        empty_index=1,
        subset=subset,
        hasse=_hasse(subset, 1),
        intersect_table=table,
        params={"max_trace_len": max_trace_len, "gen_len": gen_len,
                "radius": radius, "cap": cap, "closed": close},
    )


@dataclass(frozen=True)
class IndependenceResult:
    status: str            # "independent" | "witness" | "inconclusive"
    witness: object = None  # index of the covered ideal
    parts: tuple = ()       # indices of the covering ideals
    detail: str = ""

    def to_json(self):
        return {"status": self.status, "witness": self.witness,
                "parts": list(self.parts), "detail": self.detail}


def independence_test(lattice: IdealLattice) -> IndependenceResult:
    """Search for an ideal equal to a finite union of strictly smaller
    lattice members.  Exact for models with the exact-ideal hook; models
    without it cannot certify union coverage and report inconclusive."""
    model = lattice.model
    if not model.has_exact_ideals:
        return IndependenceResult(
            "inconclusive",
            detail="union coverage is not certifiable from truncated members alone")
    for i in lattice.nonempty_indices():
        x = lattice.ideals[i]
        proper = [j for j in lattice.nonempty_indices()
                  if j != i and lattice.subset[j][i] and not lattice.subset[i][j]]
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

    def to_json(self):
        return {"status": self.status, "rank": self.rank,
                "nonempty": self.nonempty, "radius": self.radius,
                "detail": self.detail}


def independence_rank_oracle(lattice: IdealLattice, radius=None) -> RankResult:
    """Exact rational rank of the 0/1 membership matrix of the non-empty
    ideals over the truncation; full rank certifies linear independence of
    the characteristic functions."""
    radius = lattice.radius if radius is None else radius
    idxs = lattice.nonempty_indices()
    rows_members = []
    for i in idxs:
        x = lattice.ideals[i]
        mem = frozenset(a for a in x.members if lattice.model.length(a) <= radius)
        rows_members.append(mem)
    seen = {}
    for pos, mem in enumerate(rows_members):
        if mem in seen:
            return RankResult(
                "inconclusive", nonempty=len(idxs), radius=radius,
                detail=f"ideals {seen[mem]} and {idxs[pos]} agree within the radius")
        seen[mem] = idxs[pos]
    columns = sorted(set().union(*rows_members) if rows_members else set(),
                     key=lattice.model.sort_key)
    col_pos = {c: k for k, c in enumerate(columns)}
    matrix = [[0] * len(columns) for _ in rows_members]
    for r, mem in enumerate(rows_members):
        for a in mem:
            matrix[r][col_pos[a]] = 1
    rank = bareiss_rank(matrix)
    status = "full_rank" if rank == len(rows_members) else "deficient"
    return RankResult(status, rank=rank, nonempty=len(idxs), radius=radius)


@dataclass(frozen=True)
class OreResult:
    status: str            # "ore_up_to" | "counterexample" | "inconclusive"
    level: int = 0
    pair: object = None

    def to_json(self, model=None):
        pair = None
        if self.pair is not None and model is not None:
            pair = [model.render(self.pair[0]), model.render(self.pair[1])]
        elif self.pair is not None:
            pair = list(self.pair)
        return {"status": self.status, "level": self.level, "pair": pair}


def ore_test(model, max_len, search_radius=None) -> OreResult:
    """Decide pP n qP != empty for all p, q of length <= max_len.

    With the exact hook the intersection emptiness is decided outright;
    otherwise a common multiple is searched within ``search_radius`` and a
    fruitless search is reported as inconclusive, not as a counterexample.
    """
    elems = model.enumerate_p(max_len)
    for i, p in enumerate(elems):
        for q in elems[i:]:
            if model.has_exact_ideals:
                xp = model.exact_left_mul(p, model.exact_full())
                xq = model.exact_left_mul(q, model.exact_full())
                if model.exact_intersect(xp, xq) == EMPTY:
                    return OreResult("counterexample", level=max_len, pair=(p, q))
            else:
                bound = search_radius
                if bound is None:
                    bound = model.length(p) + model.length(q) + model.default_radius
                found = False
                for z in model.enumerate_p(bound):
                    if model.divide(p, z) is not None and model.divide(q, z) is not None:
                        found = True
                        break
                if not found:
                    return OreResult("inconclusive", level=max_len, pair=(p, q))
    return OreResult("ore_up_to", level=max_len)
