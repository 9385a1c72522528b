"""Characters of a finite ideal fragment, the induced partial action, the
minimal invariant boundary, and a topological-freeness probe.

A character is a semilattice homomorphism from the fragment's non-empty
ideals to {0,1}; its support is a filter (upward closed and closed under
intersection).  On a finite intersection-closed fragment every filter has a
least element, so the characters are exactly the principal up-sets, and a
character is the fragment position of its least supported ideal.

The group acts partially: a word v with grading g carries the character
chi (with chi(dom v) = 1) to the character y -> chi(pullback of y along v),
where the pullback of y is the domain ideal of v* E_y v: the image of y
under v*, one walk of v's starred trace from y's token.  At finite
fragment scale a pullback token z is read over the characters as one pair
of column masks, D of those on which z reads 1 and E of those on which it
is open: position p reads 1 below p and 0 elsewhere, the empty ideal 0
everywhere, and any other z reads 1 on the characters whose least ideal
lies inside z and is open on the rest of the down-set of m(z), the least
fragment ideal holding z.  An open entry is the honest fingerprint of the
fragment edge: the character has several extensions with different
images, so the instance is reported, never guessed.  Fragment characters
carry the discrete topology, so closure computations add only images of
defined instances.  m(z) and the ideals inside z come from a descent along
the covers, not from a scan of the fragment.

``ThetaContext.table(g)`` holds theta_g as a tuple of ints, one per
character: the image's position, or the sentinel OUTSIDE or AMBIGUOUS
(both below zero); the unit's table too is computed, not assumed.  An
ambiguous entry keeps its image bits and the mask of the positions they
settle in ``details``, keyed ``(g, chi)``; ``theta_apply`` reads one
instance back as a ``ThetaResult``.  The characters a word serves get
their image bits and open bits as the rows of its pullbacks' D and E
columns, one transpose each.  A word is a partial bijection, so bits
settled everywhere are the filter of the least fragment ideal holding
v(c); bits that are no filter raise ``ModelError``.  The composition law
is checked on the tables directly, and only for products some word
carries: any other product's table is OUTSIDE everywhere.

The boundary is computed two independent ways and the routes are
cross-checked; a discrepancy is reported, not hidden.  Route one closes the
maximal filters one ``theta_apply`` at a time.  Route two reads the tables
once into a successor graph, per character the bitmask of its images, and
intersects the closures of all singletons, each a bitset breadth-first
search over that graph; the route degenerates when the intersection is
empty.

The freeness probe reads the tables and ``details`` on the computed
boundary, as bitmasks over the characters: an ambiguous image is resolved
only when exactly one boundary character agrees with the settled bits.
Its verdict uses basic open sets from sub-frontier ideals only (ideals
discovered strictly below the enumeration frontier), because a frontier
cylinder says nothing about the dynamics beneath the resolution of the
fragment; this is evidence at the tested depth, never a proof.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ideals import walk
from .models import EMPTY, ModelError


@dataclass(frozen=True, eq=False)
class Fragment:
    """Bit-indexed view of the non-empty ideals of a closed lattice."""

    lattice: object
    positions: tuple          # lattice indices, bit position -> lattice index
    up_masks: tuple           # per position: bitmask of superset positions
    down_masks: tuple         # per position: bitmask of subset positions
    covers: tuple             # per position: the positions it covers
    depths: tuple             # per position: discovery depth
    pos_of_token: dict        # ideal token -> position
    pos_of_up: dict           # up mask -> position: the filters

    @staticmethod
    def from_lattice(lattice) -> "Fragment":
        """The lattice's up and down masks and covering pairs with the
        empty ideal dropped."""
        positions = lattice.nonempty_indices()
        e = lattice.empty_index
        low = (1 << e) - 1

        def squeezed(masks):
            return tuple((m & low) | (m >> (e + 1) << e)
                         for m in map(masks.__getitem__, positions))
        up_masks = squeezed(lattice.up)
        covers = [[] for _ in positions]
        for i, j in lattice.hasse:   # index i > e is position i - 1
            if i != e:
                covers[j - (j > e)].append(i - (i > e))
        depths = tuple(lattice.depths[li] for li in positions)
        pos_of_token = {lattice.ideals[li].exact: b
                        for b, li in enumerate(positions)}
        pos_of_up = {mask: b for b, mask in enumerate(up_masks)}
        return Fragment(lattice, positions, up_masks, squeezed(lattice.down),
                        tuple(map(tuple, covers)), depths, pos_of_token,
                        pos_of_up)

    def size(self):
        return len(self.positions)

    def ideal_at(self, pos):
        return self.lattice.ideals[self.positions[pos]]

    def meet_pos(self, i, j):
        """Position of the meet of positions i and j, -1 if it is empty."""
        lat = self.lattice
        k = lat.meet[self.positions[i]][self.positions[j]]
        return self.pos_of_token.get(lat.ideals[k].exact, -1)

    def position_of_ideal(self, tok):
        """Position of the ideal of token ``tok``, None if it is not a
        fragment ideal."""
        return self.pos_of_token.get(tok)

    def is_filter(self, bits) -> bool:
        """Filters on a finite meet-closed fragment are principal."""
        return bits in self.pos_of_up

    def support(self, chi):
        """Positions of the ideals on which chi is 1: its up mask's bits."""
        bits = self.up_masks[chi]
        return tuple(p for p in range(bits.bit_length()) if bits >> p & 1)


def enumerate_characters(fragment: Fragment):
    """All filters on the fragment: the principal up-sets, one per
    non-empty ideal, in fragment position order."""
    return tuple(range(fragment.size()))


# ---------------------------------------------------------------------------
# Partial action

@dataclass(frozen=True)
class ThetaResult:
    status: str               # "image" | "outside" | "ambiguous"
    image: object = None      # character position when status == "image"
    bits: int = 0             # image bits when ambiguous
    settled: int = 0          # mask of the positions those bits settle


# Table entries below zero: the non-image statuses.
OUTSIDE, AMBIGUOUS = -1, -2
_OUTSIDE = ThetaResult("outside")


class ThetaContext:
    """Fragment together with an enumerated word family, with the partial
    action tabulated once per grading."""

    def __init__(self, fragment: Fragment, family):
        if fragment.lattice.model is not family.model:
            raise ModelError("fragment and word family use different models")
        self.fragment = fragment
        self.family = family
        self.model = family.model
        n = fragment.size()
        self._tables = {}
        self._no_carrier = (OUTSIDE,) * n
        self.details = {}     # (g, chi) -> (bits, settled)
        self._cols = {}       # pullback token -> (D, E) column masks
        self._tokens = tuple(fragment.ideal_at(p).exact for p in range(n))
        # theta_apply hands out one shared result per image position
        self._images = tuple(ThetaResult("image", image=p) for p in range(n))

    def gradings(self):
        unit = self.model.unit
        return tuple(g for g in self.family.by_grading if g != unit)

    def carriers(self, g):
        """Usable words with grading g: ``(word, domain position)`` for
        each word whose domain ideal matches a fragment position."""
        out = []
        for idx in self.family.by_grading.get(g, ()):
            v = self.family.members[idx]
            dom_pos = self.fragment.position_of_ideal(v.dom)
            if dom_pos is not None:
                out.append((v, dom_pos))
        return tuple(out)

    def _columns(self, z):
        """Pullback token z read over the characters, built once per
        context: the masks ``(D, E)`` of those on which z reads 1 and those
        on which it is open.  Position p reads 1 below p, the empty ideal 0
        everywhere.  Any other z reads 1 on the positions inside it and is
        open on the rest of the down-set of m(z), the least fragment ideal
        holding z.  m(z) is reached from P by entering a covered position
        that holds z while there is one.  The positions inside z are found
        below m(z), from the top: a position inside z brings its down-set,
        one that is not has its covers tried, and none is tried twice."""
        got = self._cols.get(z)
        if got is None:
            frag = self.fragment
            down = frag.down_masks
            pos = frag.pos_of_token.get(z)
            if pos is not None:
                got = (down[pos], 0)
            elif z == EMPTY:
                got = (0, 0)
            else:
                subset, toks, covers = (self.model.exact_subset, self._tokens,
                                        frag.covers)
                top = 0
                while True:
                    for c in covers[top]:
                        if subset(z, toks[c]):
                            top = c
                            break
                    else:
                        break
                ups, seen, todo = 0, 1 << top, list(covers[top])
                while todo:
                    w = todo.pop()
                    if not seen >> w & 1:
                        seen |= 1 << w
                        if subset(toks[w], z):
                            ups |= down[w]
                            seen |= down[w]
                        else:
                            todo.extend(covers[w])
                got = (ups, down[top] & ~ups)
            self._cols[z] = got
        return got

    def table(self, g):
        """theta_g at every character, in position order, as ints.

        An entry is the image character's position, or a sentinel below
        zero: OUTSIDE when chi vanishes on every usable domain ideal,
        AMBIGUOUS when the first usable word's pullback tokens leave some
        fragment ideal unsettled.  Every table is computed from its
        grading's carriers, the unit's too; a grading no word carries is
        OUTSIDE everywhere.  Each AMBIGUOUS entry keeps its image bits and
        the mask of the positions they settle in ``details``, keyed
        ``(g, chi)``.

        A carrier serves the characters below its domain position that no
        earlier carrier serves, all in one pass: the ``_columns`` of each
        fragment position's pullback, transposed, give the served
        characters' image bits and open bits.
        """
        got = self._tables.get(g)
        if got is None:
            if g not in self.family.by_grading:
                return self._no_carrier
            frag, model, cols = self.fragment, self.model, self._cols
            full = (1 << frag.size()) - 1
            entries = [OUTSIDE] * frag.size()
            done = 0
            for v, dom_pos in self.carriers(g):
                served = frag.down_masks[dom_pos] & ~done
                if not served:
                    continue
                done |= served
                star = v.trace.star().pairs
                pairs = [cols.get(z) or self._columns(z)
                         for z in [walk(model, star, t) for t in self._tokens]]
                ones, opens = (_rows(col, served) for col in zip(*pairs))
                for chi, bits in ones.items():
                    if opens[chi]:
                        self.details[g, chi] = (bits, ~opens[chi] & full)
                        entries[chi] = AMBIGUOUS
                    elif frag.is_filter(bits):
                        entries[chi] = frag.pos_of_up[bits]
                    else:
                        raise ModelError(
                            f"theta at grading {model.render(g)!r},"
                            f" character {chi}: bits are no filter")
            got = self._tables[g] = tuple(entries)
        return got


def _rows(cols, served):
    """Rows of the bit matrix whose column y is ``cols[y]``, one per set bit
    c of ``served``, as a dict in ascending c: bit y of row c is bit c of
    ``cols[y]``.  One string holds the columns' binary digits over the span
    of ``served``, last column first, so row c is a strided slice of it."""
    top = served.bit_length() - 1
    low = (served & -served).bit_length() - 1
    width = top + 1 - low
    fmt, span = f"0{width}b", (1 << width) - 1
    digits = "".join([format(col >> low & span, fmt) for col in reversed(cols)])
    out = {}
    while served:
        bit = served & -served
        c = bit.bit_length() - 1
        out[c] = int(digits[top - c::width], 2)
        served ^= bit
    return out


def theta_apply(ctx: ThetaContext, g, chi: int) -> ThetaResult:
    """Carry chi along the grading-g dynamics: the entry of
    ``ThetaContext.table`` as a result, with its details when not an
    image."""
    entry = ctx.table(g)[chi]
    if entry >= 0:
        return ctx._images[entry]
    if entry == OUTSIDE:
        return _OUTSIDE
    return ThetaResult("ambiguous", None, *ctx.details[g, chi])


@dataclass(frozen=True)
class ClosureResult:
    chars: frozenset
    events: tuple             # (grading, char) of each ambiguous instance


def invariant_closure(ctx: ThetaContext, seed) -> ClosureResult:
    """Smallest superset of the seed closed under all defined images.

    Ambiguous instances add nothing but are reported in ``events``; at
    finite fragment scale pointwise limits are members, so the closure is
    purely dynamical.
    """
    gradings = ctx.gradings()
    chars = set(seed)
    queue = list(seed)
    events = []
    while queue:
        chi = queue.pop(0)
        for g in gradings:
            res = theta_apply(ctx, g, chi)
            if res.status == "image":
                if res.image not in chars:
                    chars.add(res.image)
                    queue.append(res.image)
            elif res.status == "ambiguous":
                events.append((g, chi))
    return ClosureResult(frozenset(chars), tuple(events))


@dataclass(frozen=True)
class BoundaryResult:
    chars: frozenset
    maximal_seeds: tuple
    orbit_route: object       # frozenset or None when the route degenerates
    routes_agree: bool
    unresolved_instances: int


def boundary(ctx: ThetaContext) -> BoundaryResult:
    """Minimal invariant character set, via two independent computations.

    Route one: the closure of the maximal filters, by ``invariant_closure``.
    Route two: the intersection of the closures of all singletons, None
    when it is empty, on the successor graph (per character, the bitmask
    of its images and the count of its ambiguous entries); an intersection
    of sets closed under every defined image is closed too, so it needs no
    second closure.  ``unresolved_instances`` is route one's event count
    plus, per singleton, the counts of its closure's characters: the
    events ``invariant_closure`` would report.  The maximal-filter route is
    primary; ``routes_agree`` records the cross-check.
    """
    down = ctx.fragment.down_masks
    chars = enumerate_characters(ctx.fragment)
    maximal = tuple(c for c in chars if down[c] == 1 << c)
    route_a = invariant_closure(ctx, maximal)
    unresolved = len(route_a.events)

    succ, edge = [0] * len(chars), [0] * len(chars)
    for g in ctx.gradings():
        for chi, a in enumerate(ctx.table(g)):
            if a >= 0:
                succ[chi] |= 1 << a
            elif a == AMBIGUOUS:
                edge[chi] += 1
    inter = (1 << len(chars)) - 1
    for c in chars:
        reach = frontier = 1 << c
        while frontier:
            step = 0
            while frontier:
                low = frontier & -frontier
                p = low.bit_length() - 1
                step |= succ[p]
                unresolved += edge[p]
                frontier ^= low
            frontier = step & ~reach
            reach |= frontier
        inter &= reach
    orbit_route = frozenset(c for c in chars if inter >> c & 1) or None
    agree = orbit_route == route_a.chars
    return BoundaryResult(route_a.chars, maximal, orbit_route, agree,
                          unresolved)


# ---------------------------------------------------------------------------
# Topological freeness probe

@dataclass(frozen=True)
class FreenessVerdict:
    grading: object
    status: str               # "free" | "not-free" | "inconclusive"
    fixed: tuple              # certainly fixed boundary characters
    moved: tuple              # certainly moved
    unresolved: tuple         # neither certain
    witness_open: object = None   # sub-frontier position witnessing not-free
    note: str = ""


def topological_freeness_probe(ctx: ThetaContext, boundary_chars, g_list) -> dict:
    """Per grading: the fixed characters of the boundary dynamics and a
    density-style verdict.

    A boundary character is fixed when it is its image's only completion,
    moved when it is not among them, and unresolved otherwise, also when
    there is none: an image is its own completion, an ambiguous entry's
    are the boundary characters whose up mask agrees with its bits where
    they are settled.
    not-free: some basic open set from a sub-frontier ideal meets the
    domain and consists entirely of certainly-fixed characters.  free: no
    such open set, and either the domain is empty for good or a certainly
    moved character witnesses movement.  An empty domain is empty for good
    unless no word carries g and gP meets P: then a deeper word may carry
    it, and the verdict is inconclusive.  Everything else is inconclusive.
    """
    unit = ctx.model.unit
    carried = ctx.family.by_grading
    frag = ctx.fragment
    up, down = frag.up_masks, frag.down_masks
    ordered = sorted(set(boundary_chars), key=up.__getitem__)
    frontier = max(frag.depths, default=0)
    sub_frontier = [p for p, d in enumerate(frag.depths) if d < frontier]
    out = {}
    for g in g_list:
        if g == unit:
            raise ModelError("freeness probe expects non-identity gradings")
        table = ctx.table(g)
        domain = 0
        fixed, moved, unresolved = [], [], []
        for chi in ordered:
            a = table[chi]
            if a == OUTSIDE:
                continue
            domain |= 1 << chi
            if a == AMBIGUOUS:
                bits, settled = ctx.details[g, chi]
                agree = sum(1 << b for b in ordered
                            if not (up[b] ^ bits) & settled)
                kind = (fixed if agree == 1 << chi else
                        unresolved if not agree or agree >> chi & 1 else moved)
            else:
                kind = fixed if a == chi else moved
            kind.append(chi)
        fixed_bits = sum(1 << chi for chi in fixed)
        witness = None
        for p in sub_frontier:
            cylinder = domain & down[p]
            if cylinder and not cylinder & ~fixed_bits:
                witness = p
                break
        if witness is not None:
            status, note = "not-free", "sub-frontier open set of fixed characters"
        elif not domain and g not in carried and ctx.model.meets_p(g):
            status, note = "inconclusive", "no word carries it at the tested depth"
        elif not domain:
            status, note = "free", "empty domain"
        elif moved:
            status, note = "free", "no fixed open set; movement witnessed"
        else:
            status, note = "inconclusive", "fragment cannot certify movement"
        out[g] = FreenessVerdict(g, status, tuple(fixed), tuple(moved),
                                 tuple(unresolved), witness, note)
    return out
