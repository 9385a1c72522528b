"""Characters of a finite ideal fragment, the induced partial action, the
minimal invariant boundary, and a topological-freeness probe.

A character is a semilattice homomorphism from the fragment's non-empty
ideals to {0,1}; its support is a filter (upward closed and closed under
intersection).  On a finite intersection-closed fragment every filter has a
least element, so the characters are exactly the principal up-sets, and a
character is the fragment position of its least supported ideal.

The group acts partially: a word v with grading g carries the character
chi (with chi(dom v) = 1) to the character y -> chi(pullback of y along v),
where the pullback of y is the domain ideal of v* E_y v.  At finite
fragment scale a pulled-back ideal may fall outside the fragment; its value
is then forced upward (some supported fragment ideal sits inside it),
forced downward (some unsupported fragment ideal contains it), or genuinely
ambiguous.  Ambiguity is the honest fingerprint of the fragment edge: the
character has several extensions with different images, so the instance is
reported, never guessed.  Fragment characters carry the discrete topology,
so closure computations add only images of defined instances.

The boundary is computed two independent ways (closure of the maximal
filters, and the intersection of the closures of all singletons when that
intersection is itself invariant and non-empty) and the routes are
cross-checked; a discrepancy is reported, not hidden.

The freeness probe restricts the dynamics to the computed boundary: an
ambiguous image is resolved only when exactly one boundary character is
consistent with the determined values.  Its verdict uses basic open sets
from sub-frontier ideals only (ideals discovered strictly below the
enumeration frontier), because a frontier cylinder says nothing about the
dynamics beneath the resolution of the fragment; this is evidence at the
tested depth, never a proof.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import invsgp
from .models import ModelError


class FragmentError(ValueError):
    """Fragment is not intersection-closed or misses required data."""


@dataclass(frozen=True, eq=False)
class Fragment:
    """Bit-indexed view of the non-empty ideals of a closed lattice."""

    lattice: object
    positions: tuple          # lattice indices, bit position -> lattice index
    up_masks: tuple           # per position: bitmask of superset positions
    meet: tuple               # per (i, j) flattened: position of meet, or -1 for empty
    depths: tuple             # per position: discovery depth
    full_pos: int
    pos_of_key: dict          # ideal dedup key -> position
    pos_of_up: dict           # up mask -> position: the filters

    @staticmethod
    def from_lattice(lattice) -> "Fragment":
        if not lattice.params.get("closed", False):
            raise FragmentError("fragment requires an intersection-closed lattice")
        positions = lattice.nonempty_indices()
        pos_of = {li: b for b, li in enumerate(positions)}
        up_masks = []
        for b, li in enumerate(positions):
            mask = 0
            for c, lj in enumerate(positions):
                if lattice.subset[li][lj]:
                    mask |= 1 << c
            up_masks.append(mask)
        meet = []
        for li in positions:
            for lj in positions:
                k = lattice.intersect_table.get((li, lj))
                if k is None:
                    raise FragmentError("lattice intersection table incomplete")
                meet.append(pos_of.get(k, -1))
        full_pos = pos_of[0]
        depths = tuple(lattice.depths[li] for li in positions)
        pos_of_key = {lattice.ideals[li].dedup_key(): b
                      for b, li in enumerate(positions)}
        pos_of_up = {mask: b for b, mask in enumerate(up_masks)}
        if len(pos_of_up) != len(positions):
            raise FragmentError("two fragment ideals contain each other")
        return Fragment(lattice, positions, tuple(up_masks),
                        tuple(meet), depths, full_pos, pos_of_key, pos_of_up)

    def size(self):
        return len(self.positions)

    def ideal_at(self, pos):
        return self.lattice.ideals[self.positions[pos]]

    def meet_pos(self, i, j):
        return self.meet[i * len(self.positions) + j]

    def position_of_ideal(self, ideal):
        return self.pos_of_key.get(ideal.dedup_key())

    def sub_frontier_positions(self):
        frontier = max(self.depths) if self.depths else 0
        return tuple(p for p, d in enumerate(self.depths) if d < frontier)

    def is_filter(self, bits) -> bool:
        """Filters on a finite meet-closed fragment are principal."""
        return bits in self.pos_of_up

    def value(self, chi, pos) -> int:
        """The character chi evaluated at the ideal in position pos."""
        return (self.up_masks[chi] >> pos) & 1

    def support(self, chi):
        """Positions of the ideals on which chi is 1, ascending."""
        return tuple(p for p in range(self.size()) if self.value(chi, p))


def enumerate_characters(fragment: Fragment):
    """All filters on the fragment: the principal up-sets, one per
    non-empty ideal, in fragment position order."""
    return tuple(range(fragment.size()))


def principal_character(fragment: Fragment, p) -> int:
    """The evaluation character x -> [p in x]."""
    bits = 0
    for pos in range(fragment.size()):
        if fragment.ideal_at(pos).contains(p):
            bits |= 1 << pos
    if not fragment.is_filter(bits):
        raise FragmentError("membership pattern is not a filter; fragment not closed?")
    return fragment.pos_of_up[bits]


# ---------------------------------------------------------------------------
# Partial action

@dataclass(frozen=True)
class ThetaResult:
    status: str               # "image" | "outside" | "ambiguous" | "invalid"
    image: object = None      # character position when status == "image"
    determined: tuple = ()    # ((pos, bit), ...) when ambiguous
    ambiguous: tuple = ()     # positions that no rule settled


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
        self._tables = {}

    def gradings(self):
        unit = self.model.unit
        return tuple(g for g in self.family.by_grading if g != unit)

    def carriers(self, g):
        """Usable words with grading g: those whose domain ideal matches a
        fragment position, each with a per-ideal pullback recipe."""
        out = []
        for idx in self.family.by_grading.get(g, ()):
            v = self.family.members[idx]
            dom_pos = self.fragment.position_of_ideal(v.dom)
            if dom_pos is None:
                continue
            recipes = tuple(self._recipe(v, pos)
                            for pos in range(self.fragment.size()))
            out.append((idx, v, dom_pos, recipes))
        return tuple(out)

    def _recipe(self, v, pos):
        y = self.fragment.ideal_at(pos)
        pulled = invsgp.compose(invsgp.compose(invsgp.star(v),
                                               invsgp.idempotent_vword(y)), v)
        z = pulled.dom
        if pulled.is_zero or z.is_empty() is True:
            return ("empty",)
        zpos = self.fragment.position_of_ideal(z)
        if zpos is not None:
            return ("pos", zpos)
        ups = 0
        downs = 0
        for w in range(self.fragment.size()):
            wid = self.fragment.ideal_at(w)
            if wid.subset_of(z):
                ups |= 1 << w
            if z.subset_of(wid):
                downs |= 1 << w
        return ("bounds", ups, downs)

    def table(self, g):
        """theta_g at every character, in position order.

        "outside" when chi vanishes on every usable domain ideal; otherwise
        the first usable word's pullback recipe determines the image bits
        per fragment ideal, and any unresolved position makes the whole
        instance ambiguous.
        """
        got = self._tables.get(g)
        if got is None:
            carriers = self.carriers(g)
            got = tuple(self._apply(carriers, chi)
                        for chi in range(self.fragment.size()))
            self._tables[g] = got
        return got

    def _apply(self, carriers, chi):
        frag = self.fragment
        chi_bits = frag.up_masks[chi]
        for _, _, dom_pos, recipes in carriers:
            if not frag.value(chi, dom_pos):
                continue
            bits = 0
            ambiguous = []
            determined = []
            for pos, recipe in enumerate(recipes):
                kind = recipe[0]
                if kind == "empty":
                    determined.append((pos, 0))
                elif kind == "pos":
                    bit = frag.value(chi, recipe[1])
                    determined.append((pos, bit))
                    if bit:
                        bits |= 1 << pos
                else:
                    _, ups, downs = recipe
                    if chi_bits & ups:
                        determined.append((pos, 1))
                        bits |= 1 << pos
                    elif downs & ~chi_bits:
                        determined.append((pos, 0))
                    else:
                        ambiguous.append(pos)
            if ambiguous:
                return ThetaResult("ambiguous", determined=tuple(determined),
                                   ambiguous=tuple(ambiguous))
            if not frag.is_filter(bits):
                return ThetaResult("invalid", determined=tuple(determined))
            return ThetaResult("image", image=frag.pos_of_up[bits])
        return _OUTSIDE


def theta_apply(ctx: ThetaContext, g, chi: int) -> ThetaResult:
    """Carry chi along the grading-g dynamics (see ``ThetaContext.table``)."""
    if g == ctx.model.unit:
        return ThetaResult("image", image=chi)
    return ctx.table(g)[chi]


@dataclass(frozen=True)
class ClosureResult:
    chars: frozenset
    events: tuple             # (grading, char, status) for non-image instances


def invariant_closure(ctx: ThetaContext, seed, gradings=None) -> ClosureResult:
    """Smallest superset of the seed closed under all defined images.

    Ambiguous and invalid instances add nothing but are reported in
    ``events``; at finite fragment scale pointwise limits are members, so
    the closure is purely dynamical.
    """
    if gradings is None:
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
            elif res.status in ("ambiguous", "invalid"):
                events.append((g, chi, res.status))
    return ClosureResult(frozenset(chars), tuple(events))


@dataclass(frozen=True)
class BoundaryResult:
    chars: frozenset
    maximal_seeds: tuple
    orbit_route: object       # frozenset or None when the route degenerates
    routes_agree: bool
    events: tuple

    def to_json(self, fragment):
        return {
            "size": len(self.chars),
            "supports": sorted(list(fragment.support(c)) for c in self.chars),
            "maximal_seed_count": len(self.maximal_seeds),
            "orbit_route_size": None if self.orbit_route is None else len(self.orbit_route),
            "routes_agree": self.routes_agree,
            "unresolved_instances": len(self.events),
        }


def boundary(ctx: ThetaContext) -> BoundaryResult:
    """Minimal invariant character set, via two independent computations.

    Route one: the closure of the maximal filters.  Route two: the
    intersection of the closures of all singletons, kept only when it is
    itself non-empty and invariant.  The maximal-filter route is primary;
    ``routes_agree`` records the cross-check.
    """
    up = ctx.fragment.up_masks
    chars = enumerate_characters(ctx.fragment)
    maximal = tuple(
        c for c in chars
        if not any(up[o] != up[c] and (up[c] & up[o]) == up[c] for o in chars))
    route_a = invariant_closure(ctx, maximal)
    events = list(route_a.events)

    inter = set(chars)
    for c in chars:
        cl = invariant_closure(ctx, [c])
        events.extend(cl.events)
        inter &= cl.chars
    orbit_route = None
    if inter:
        recheck = invariant_closure(ctx, sorted(inter, key=up.__getitem__))
        if recheck.chars == frozenset(inter):
            orbit_route = frozenset(inter)
    agree = orbit_route is not None and orbit_route == route_a.chars
    return BoundaryResult(route_a.chars, maximal, orbit_route, agree,
                          tuple(events))


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

    def to_json(self, model):
        return {
            "grading": model.render(self.grading),
            "status": self.status,
            "fixed": len(self.fixed),
            "moved": len(self.moved),
            "unresolved": len(self.unresolved),
            "witness_open": self.witness_open,
            "note": self.note,
        }


def _boundary_status(fragment, boundary_chars, chi, res):
    """Classify chi, whose grading-g result is res, under the dynamics
    restricted to the boundary: 'fixed' / 'moved' when certain for every
    boundary-consistent completion, else 'unresolved'."""
    if res.status == "image":
        if res.image not in boundary_chars:
            return "moved"   # image escaped; invariance cross-checks flag it
        return "fixed" if res.image == chi else "moved"
    if res.status == "invalid":
        return "unresolved"
    completions = [b for b in boundary_chars
                   if all(fragment.value(b, pos) == bit
                          for pos, bit in res.determined)]
    if not completions:
        return "unresolved"
    if all(b == chi for b in completions):
        return "fixed"
    if chi not in completions:
        return "moved"
    return "unresolved"


def topological_freeness_probe(ctx: ThetaContext, boundary_chars, g_list) -> dict:
    """Per grading: the fixed characters of the boundary dynamics and a
    density-style verdict.

    not-free: some basic open set from a sub-frontier ideal meets the
    domain and consists entirely of certainly-fixed characters.  free: no
    such open set, and either the domain is empty or a certainly moved
    character witnesses movement.  Everything else is inconclusive.
    """
    unit = ctx.model.unit
    frag = ctx.fragment
    boundary_chars = frozenset(boundary_chars)
    ordered = sorted(boundary_chars, key=frag.up_masks.__getitem__)
    sub_frontier = frag.sub_frontier_positions()
    out = {}
    for g in g_list:
        if g == unit:
            raise ModelError("freeness probe expects non-identity gradings")
        domain = []
        fixed, moved, unresolved = [], [], []
        for chi in ordered:
            res = theta_apply(ctx, g, chi)
            if res.status == "outside":
                continue
            domain.append(chi)
            kind = _boundary_status(frag, boundary_chars, chi, res)
            {"fixed": fixed, "moved": moved, "unresolved": unresolved}[kind].append(chi)
        witness = None
        for pos in sub_frontier:
            cylinder = [chi for chi in domain if frag.value(chi, pos)]
            if cylinder and all(chi in fixed for chi in cylinder):
                witness = pos
                break
        if witness is not None:
            status, note = "not-free", "sub-frontier open set of fixed characters"
        elif not domain:
            status, note = "free", "empty domain"
        elif moved:
            status, note = "free", "no fixed open set; movement witnessed"
        else:
            status, note = "inconclusive", "fragment cannot certify movement"
        out[g] = FreenessVerdict(g, status, tuple(fixed), tuple(moved),
                                 tuple(unresolved), witness, note)
    return out
