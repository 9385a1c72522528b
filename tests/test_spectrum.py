import collections

import pytest

from oracles import (boundary_event_count, brute_filters, brute_trace_members,
                     forward_image, freeness_reference, maximal_filters,
                     principal_character, restrict, rule_table, scan_pair,
                     theta_law_counts, transpose_masks, uncached_walk)
from sgclab import cli, spectrum
from sgclab.ideals import WordTrace, enumerate_ideals, from_trace
from sgclab.invsgp import enumerate_vwords
from sgclab.models import EMPTY, ModelError, build_model
from sgclab.spectrum import (Fragment, ThetaContext,
                             boundary, enumerate_characters, invariant_closure,
                             theta_apply, topological_freeness_probe)


def fragment_for(model, depth, gen_len=None, radius=None):
    gl = gen_len or (3 if model.family == "numerical" else 1)
    rad = radius or (6 if model.family == "free_monoid" else 30)
    lat = enumerate_ideals(model, depth, gl, rad)
    return Fragment.from_lattice(lat)


def context_for(model, depth):
    frag = fragment_for(model, depth)
    gl = 3 if model.family == "numerical" else 1
    rad = 6 if model.family == "free_monoid" else 30
    fam = enumerate_vwords(model, depth, gl, rad)
    return ThetaContext(frag, fam)


def num357_context():
    num357 = build_model({"family": "numerical", "generators": [3, 5, 7]})
    lat = enumerate_ideals(num357, 2, 7, 50)
    return ThetaContext(Fragment.from_lattice(lat),
                        enumerate_vwords(num357, 2, 7, 50))


def value(frag, chi, pos):
    """The character chi evaluated at the ideal in position pos."""
    return frag.up_masks[chi] >> pos & 1


def char_by_support(frag, chars, supports):
    for c in chars:
        if set(frag.support(c)) == set(supports):
            return c
    raise AssertionError(f"no character with support {supports}")


def test_fragment_down_masks_are_the_up_masks_transpose(all_models):
    # the down masks are the lattice's, the empty ideal's bit squeezed out:
    # the transpose of the up masks
    num479 = build_model({"family": "numerical", "generators": [4, 7, 9]})
    frags = [fragment_for(m, d) for m in all_models for d in (1, 2)]
    frags.append(fragment_for(num479, 2))
    for frag in frags:
        assert frag.down_masks == transpose_masks(frag.up_masks)


# ---------------------------------------------------------------------------
# characters are exactly the filters

def test_singleton_fragment_has_one_character(n1):
    frag = fragment_for(n1, 0)
    assert frag.size() == 1
    assert len(enumerate_characters(frag)) == 1


def test_chain_fragment_characters(n1):
    frag = fragment_for(n1, 2)   # P, 1+N, 2+N
    chars = enumerate_characters(frag)
    assert len(chars) == 3
    supports = sorted(frag.support(c) for c in chars)
    assert supports == [(0,), (0, 1), (0, 1, 2)]


def test_f2_depth1_characters(f2):
    frag = fragment_for(f2, 1)   # P, aP, bP
    chars = enumerate_characters(frag)
    assert len(chars) == 3
    # aP and bP are disjoint so no filter holds both
    for c in chars:
        assert not (value(frag, c, 1) and value(frag, c, 2))


def test_characters_match_subset_scan_oracle(all_models):
    for model in all_models:
        frag = fragment_for(model, 2)
        if frag.size() > 12:
            frag = fragment_for(model, 1)
        r = frag.lattice.radius
        members = [set(frag.ideal_at(p).members_upto(r))
                   for p in range(frag.size())]
        want = brute_filters(members)
        got = {frag.support(c) for c in enumerate_characters(frag)}
        assert got == want
        if frag.size() <= 10:
            for bits in range(1 << frag.size()):
                support = tuple(p for p in range(frag.size()) if (bits >> p) & 1)
                assert frag.is_filter(bits) == (support in want), (model.name, bits)


def test_characters_satisfy_filter_axioms(all_models):
    for model in all_models:
        frag = fragment_for(model, 2)
        for c in enumerate_characters(frag):
            assert frag.is_filter(frag.up_masks[c])
            assert value(frag, c, frag.pos_of_token[model.exact_full()]) == 1


def test_principal_characters(n1, f2):
    frag = fragment_for(n1, 3)   # P, 1+N, 2+N, 3+N
    chi2 = principal_character(frag, (2,))
    assert [value(frag, chi2, p) for p in range(4)] == [1, 1, 1, 0]
    chi0 = principal_character(frag, (0,))
    assert [value(frag, chi0, p) for p in range(4)] == [1, 0, 0, 0]

    fragf = fragment_for(f2, 1)
    chia = principal_character(fragf, "a")
    assert [value(fragf, chia, p) for p in range(3)] == [1, 1, 0]


def test_principal_characters_are_enumerated(all_models):
    for model in all_models:
        frag = fragment_for(model, 2)
        chars = set(enumerate_characters(frag))
        for p in model.enumerate_p(2):
            assert principal_character(frag, p) in chars


# ---------------------------------------------------------------------------
# the partial action

def test_theta_identity(all_models):
    for model in all_models:
        ctx = context_for(model, 2)
        for chi in enumerate_characters(ctx.fragment):
            res = theta_apply(ctx, model.unit, chi)
            assert res.status == "image" and res.image == chi


def test_theta_moves_principal_chain(n1):
    ctx = context_for(n1, 2)
    frag = ctx.fragment
    chi0 = principal_character(frag, (0,))
    chi1 = principal_character(frag, (1,))
    res = theta_apply(ctx, (1,), chi0)
    assert res.status == "image" and res.image == chi1


def test_theta_outside_domain(f2):
    ctx = context_for(f2, 1)
    chib = principal_character(ctx.fragment, "b")
    res = theta_apply(ctx, "A", chib)
    assert res.status == "outside"


def test_theta_ambiguous_at_fragment_edge(n1):
    ctx = context_for(n1, 2)
    top = char_by_support(ctx.fragment, enumerate_characters(ctx.fragment),
                          (0, 1, 2))
    up = theta_apply(ctx, (1,), top)
    assert up.status == "image" and up.image == top
    down = theta_apply(ctx, (-1,), top)
    assert down.status == "ambiguous"
    # the image is 1 on P and 1 + N; on 2 + N it is open, as the pullback
    # 3 + N lies outside the fragment
    assert (down.bits, down.settled) == (0b011, 0b011)


def test_theta_principal_transport(all_models):
    # theta_g(chi_p) = chi_{g p} on every defined instance
    for model in all_models:
        ctx = context_for(model, 2)
        frag = ctx.fragment
        for p in model.enumerate_p(2):
            chi = principal_character(frag, p)
            for g in ctx.gradings():
                res = theta_apply(ctx, g, chi)
                if res.status != "image":
                    continue
                gp = model.mul(g, p)
                assert model.in_p(gp)
                assert res.image == principal_character(frag, gp)


def test_theta_composition_law(all_models):
    for model in all_models:
        ctx = context_for(model, 2)
        chars = enumerate_characters(ctx.fragment)
        gradings = ctx.gradings()[:8]
        checked = 0
        for g1 in gradings:
            for g2 in gradings:
                g12 = model.mul(g1, g2)
                for chi in chars:
                    r2 = theta_apply(ctx, g2, chi)
                    if r2.status != "image":
                        continue
                    r1 = theta_apply(ctx, g1, r2.image)
                    r12 = theta_apply(ctx, g12, chi)
                    if r1.status == "image" and r12.status == "image":
                        assert r1.image == r12.image
                        checked += 1
        assert checked > 0


def pullback_pairs(ctx, v):
    """The ``(ups, downs)`` pair of each fragment position's pullback along
    v, its token walked without the step cache and its pair scanned; the
    empty pullback, inside the empty ideal that no character holds, is
    ``(0, -1)``: 0 on every character."""
    star, frag = v.trace.star().pairs, ctx.fragment
    tokens = [uncached_walk(ctx.model, star, frag.ideal_at(p).exact)
              for p in range(frag.size())]
    return [(0, -1) if z == EMPTY else scan_pair(frag, z) for z in tokens]


def read(up, pair):
    """The one rule on a character's up mask: 1 when it holds a position of
    ``ups``, 0 when it misses one of ``downs``, None (open) otherwise."""
    ups, downs = pair
    if up & ups:
        return 1
    return 0 if downs & ~up else None


def columns(frag, pair):
    """A pair read on every character, as the masks ``(D, E)`` of the
    characters on which it reads 1 and those on which it is open."""
    reads = [read(up, pair) for up in frag.up_masks]
    return (sum(1 << c for c, r in enumerate(reads) if r == 1),
            sum(1 << c for c, r in enumerate(reads) if r is None))


def test_theta_carriers_agree(all_models):
    # every usable word with the same grading produces the same image
    for model in all_models:
        ctx = context_for(model, 2)
        frag = ctx.fragment
        chars = enumerate_characters(frag)
        for g in ctx.gradings():
            carriers = [(dom_pos, pullback_pairs(ctx, v))
                        for v, dom_pos in ctx.carriers(g)]
            if len(carriers) < 2:
                continue
            for chi in chars:
                up = frag.up_masks[chi]
                images = set()
                for dom_pos, pairs in carriers:
                    if not value(frag, chi, dom_pos):
                        continue
                    values = tuple(read(up, pair) for pair in pairs)
                    if None not in values:
                        images.add(values)
                assert len(images) <= 1, (model.name, g)


def test_theta_settled_mask_is_what_the_recipes_settle(all_models):
    # the one rule restated: a pullback settles 1 when chi holds a position
    # of its ups mask, 0 when chi misses a position of its downs mask, and
    # stays open otherwise.  The first carrier whose domain chi holds is
    # the one read.
    ambiguous = 0
    for model in all_models:
        ctx = context_for(model, 2)
        frag = ctx.fragment
        full = (1 << frag.size()) - 1
        for g in ctx.gradings():
            for chi in enumerate_characters(frag):
                res = theta_apply(ctx, g, chi)
                if res.status != "ambiguous":
                    continue
                up = frag.up_masks[chi]
                v = next(v for v, dom_pos in ctx.carriers(g)
                         if value(frag, chi, dom_pos))
                bits = settled = 0
                for pos, pair in enumerate(pullback_pairs(ctx, v)):
                    bit = read(up, pair)
                    if bit is not None:
                        settled |= 1 << pos
                        bits |= bit << pos
                assert (res.bits, res.settled) == (bits, settled), model.name
                # nothing is settled everywhere without being an image
                assert settled != full, model.name
                ambiguous += 1
    assert ambiguous


def test_theta_entries_match_the_forward_hull(all_models):
    # route two for theta: an image entry is the hull of v(c), the forward
    # walk of the first carrier's trace from chi's least ideal c; an
    # ambiguous entry agrees with it wherever it is settled; an outside
    # entry has no carrier whose domain chi holds
    contexts = [context_for(model, depth)
                for model in all_models for depth in (1, 2)]
    contexts += [_default_context(build_model(config), depth)
                 for config, depth in (
                     ({"family": "numerical", "generators": [4, 7, 9]}, 2),
                     ({"family": "free_monoid", "rank": 3}, 3))]
    counts = collections.Counter()
    for ctx in contexts:
        up = ctx.fragment.up_masks
        for g in (ctx.model.unit, *ctx.gradings()):
            for chi in enumerate_characters(ctx.fragment):
                res = theta_apply(ctx, g, chi)
                fwd = forward_image(ctx, g, chi)
                if res.status == "outside":
                    assert fwd is None, (ctx.model.name, g, chi)
                elif res.status == "image":
                    assert fwd == up[res.image], (ctx.model.name, g, chi)
                else:
                    assert res.status == "ambiguous"
                    assert not (fwd ^ res.bits) & res.settled, \
                        (ctx.model.name, g, chi)
                counts[ctx.model.name, res.status] += 1
    assert counts["<4,7,9>", "ambiguous"] == 391
    assert all(counts[m.name, "image"] for m in all_models)


def test_table_rows_match_the_per_character_rule(all_models):
    # every entry and every details item of a carrier's transposed columns
    # equals the rule read one character at a time: the first carrier
    # whose domain the character holds, each pullback pair tested on its
    # up mask.  On <4,5> some pullbacks outside the fragment hold a
    # fragment ideal above a character the carrier serves
    num = [({"family": "numerical", "generators": gens}, 2)
           for gens in ([3, 5, 7], [4, 7, 9], [4, 5])]
    contexts = [context_for(model, depth)
                for model in all_models for depth in (1, 2)]
    contexts += [_default_context(build_model(config), depth)
                 for config, depth in (
                     *num, ({"family": "free_monoid", "rank": 3}, 3))]
    counts = collections.Counter()
    for ctx in contexts:
        details = {}
        for g in (ctx.model.unit, *ctx.gradings()):
            table, got = rule_table(ctx, g)
            assert ctx.table(g) == table, (ctx.model.name, g)
            details.update(got)
            counts[ctx.model.name, "carriers"] += len(ctx.carriers(g)) > 1
        assert ctx.details == details, ctx.model.name
        counts[ctx.model.name, "ambiguous"] += len(details)
    assert counts["<4,7,9>", "ambiguous"] == 391
    assert counts["<3,5,7>", "ambiguous"] and counts["<4,7,9>", "carriers"]


def test_recipe_pullback_matches_trace_evaluation(all_models):
    # the pullback of y along v is the domain of v* E_y v; the table takes
    # it with one walk from y's token, this evaluates the whole trace of
    # v* . y . y* . v from P and checks its members against the raw sets
    # (on <3,5,7> for the first carrier of each grading only: all 4,100
    # of its pullbacks would take seconds).  Its columns are (0, 0) when it
    # is empty, (the characters below p, 0) at fragment position p, and
    # the subset scan of the fragment read on every character otherwise.
    cases = [context_for(model, 2) for model in all_models]
    cases.append(num357_context())
    for ctx in cases:
        model, frag = ctx.model, ctx.fragment
        radius = {"free_monoid": 4, "free_abelian": 6}.get(model.family, 12)
        checked = 0
        for g in ctx.gradings():
            carriers = ctx.carriers(g)
            for v, _ in carriers[:1] if cases[-1] is ctx else carriers:
                star = v.trace.star().pairs
                for pos in range(frag.size()):
                    y = frag.ideal_at(pos)
                    cols = ctx._columns(uncached_walk(model, star, y.exact))
                    pairs = (v.trace.star().pairs + y.trace.pairs
                             + y.trace.star().pairs + v.trace.pairs)
                    z = from_trace(model, WordTrace(pairs))
                    checked += 1
                    assert set(z.members_upto(radius)) == brute_trace_members(
                        model, pairs, radius), (model.name, pairs)
                    if z.is_empty():
                        assert cols == (0, 0)
                    elif z.exact in frag.pos_of_token:
                        p = frag.pos_of_token[z.exact]
                        below = sum(1 << c for c in range(frag.size())
                                    if value(frag, c, p))
                        assert cols == (below, 0)
                    else:
                        assert cols == columns(frag, scan_pair(frag, z.exact))
        assert checked, model.name


def test_fragment_pairs_read_as_their_subset_scan(all_models):
    # a pullback at fragment position p reads 1 on a character exactly
    # when the character holds p, and is nowhere open: on every character
    # it reads as the full subset scan does.  The empty pullback lies
    # inside the empty ideal, which no character holds, so it reads 0 even
    # where the scan, blind to that ideal, would leave it open.
    open_empty = 0
    for ctx in [context_for(m, 2) for m in all_models] + [num357_context()]:
        frag = ctx.fragment
        for p in range(frag.size()):
            cols = ctx._columns(frag.ideal_at(p).exact)
            scan = scan_pair(frag, frag.ideal_at(p).exact)
            assert cols == columns(frag, scan) == (frag.down_masks[p], 0)
            for chi in enumerate_characters(frag):
                up = frag.up_masks[chi]
                assert (cols[0] >> chi & 1 == read(up, scan)
                        == value(frag, chi, p))
        assert ctx._columns(EMPTY) == (0, 0)
        for chi in enumerate_characters(frag):
            up = frag.up_masks[chi]
            open_empty += read(up, scan_pair(frag, EMPTY)) is None
    assert open_empty


def test_each_pullback_token_is_scanned_once_per_context(all_models,
                                                         monkeypatch):
    # building every table of a fresh context asks of a pullback token
    # outside the fragment and a fragment position each of "is the position
    # inside it" and "does the position contain it" at most once, however
    # many (carrier, position) pairs pull back to it: each token's pair is
    # built once, by a descent and a down-set scan that never ask twice
    walk = spectrum.walk
    for ctx in [context_for(m, 2) for m in all_models] + [num357_context()]:
        model, frag = ctx.model, ctx.fragment
        toks = frozenset(frag.pos_of_token)
        asks, pullbacks = collections.Counter(), collections.Counter()
        subset = type(model).exact_subset

        def counted_subset(self, tok, other):
            if (tok in toks) != (other in toks):
                asks[tok, other] += 1
            return subset(self, tok, other)

        def counted_walk(model, pairs, tok):
            z = walk(model, pairs, tok)
            pullbacks[z] += 1
            return z
        with monkeypatch.context() as m:
            m.setattr(type(model), "exact_subset", counted_subset)
            m.setattr(spectrum, "walk", counted_walk)
            for g in ctx.gradings() + (model.unit,):
                ctx.table(g)
        outside = {z for z in pullbacks if z not in toks and z != EMPTY}
        asked = {t for pair in asks for t in pair if t not in toks}
        assert outside and asked == outside, model.name
        assert set(asks.values()) == {1}, model.name
        assert sum(pullbacks[z] for z in outside) > len(outside), model.name


def _law_counts(model, lattice, family):
    """The composition-law counts of the spectrum analysis, and its
    context."""
    store = {"lattice": lattice, "family": family}
    out, _ = cli._an_spectrum(model, None, None, store)
    law = out["composition_law"]
    return ((law["checked"], law["failures"], law["skipped_at_fragment_edge"]),
            store["theta"])


def test_table_law_counts_match_per_instance_oracle(all_models, lattice_of,
                                                    family_of):
    # the fixture models, <3,5,7>, and at the run's default caps F3+ and
    # <4,7,9> at depth 2 and F2+ at depth 3; some products are carried by
    # no word, and on F2+ at depth 3 some gradings have no image at all,
    # so the branches that count both without a loop meet the oracle too
    num357 = build_model({"family": "numerical", "generators": [3, 5, 7]})
    cases = [(m, lattice_of(m, depth=2), family_of(m, depth=2))
             for m in all_models]
    cases.append((num357, enumerate_ideals(num357, 2, 7, 50),
                  enumerate_vwords(num357, 2, 7, 50)))
    for config, depth in (({"family": "free_monoid", "rank": 3}, 2),
                          ({"family": "numerical", "generators": [4, 7, 9]}, 2),
                          ({"family": "free_monoid", "rank": 2}, 3)):
        ctx = _default_context(build_model(config), depth)
        cases.append((ctx.model, ctx.fragment.lattice, ctx.family))
    uncarried = imageless = 0
    for model, lat, fam in cases:
        counts, ctx = _law_counts(model, lat, fam)
        assert counts == theta_law_counts(ctx), model.name
        assert counts[0] > 0
        if model is num357:
            assert counts == (8289, 0, 14979)
        gradings = ctx.gradings()
        uncarried += sum(model.mul(g1, g2) not in fam.by_grading
                         for g1 in gradings for g2 in gradings)
        imageless += sum(max(ctx.table(g)) < 0 for g in gradings)
    assert uncarried and imageless


def test_planted_table_entry_fails_both_law_checks(monkeypatch, num23,
                                                   lattice_of, family_of):
    lat, fam = lattice_of(num23, depth=2), family_of(num23, depth=2)
    ctx = ThetaContext(Fragment.from_lattice(lat), fam)
    # an image of g1 that some checked triple reads, moved to another image
    g1, a = next((g1, a) for g2 in ctx.gradings() for g1 in ctx.gradings()
                 for a, c in zip(ctx.table(g2), ctx.table(num23.mul(g1, g2)))
                 if a >= 0 and c >= 0 and ctx.table(g1)[a] >= 0)
    wrong = next(x for x in range(ctx.fragment.size())
                 if x != ctx.table(g1)[a])
    table = ThetaContext.table

    def planted(self, g):
        got = table(self, g)
        if g == g1:
            got = got[:a] + (wrong,) + got[a + 1:]
        return got

    monkeypatch.setattr(ThetaContext, "table", planted)
    counts, ctx = _law_counts(num23, lat, fam)
    assert counts[1] > 0
    assert counts == theta_law_counts(ctx)


# ---------------------------------------------------------------------------
# closures and the boundary

def test_closure_of_everything_is_everything(num23):
    ctx = context_for(num23, 1)
    chars = enumerate_characters(ctx.fragment)
    res = invariant_closure(ctx, chars)
    assert res.chars == frozenset(chars)


def test_closure_of_top_character_chain(n1):
    ctx = context_for(n1, 2)
    top = char_by_support(ctx.fragment, enumerate_characters(ctx.fragment),
                          (0, 1, 2))
    res = invariant_closure(ctx, [top])
    assert res.chars == frozenset([top])
    assert res.events   # the downward moves are honestly unresolved


def test_closure_grows_from_principal(f2):
    ctx = context_for(f2, 1)
    chia = principal_character(ctx.fragment, "a")
    res = invariant_closure(ctx, [chia])
    assert len(res.chars) >= 2


def test_boundary_singleton_for_ore_models(n1, n2, num23):
    for model in (n1, n2, num23):
        for depth in (1, 2):
            ctx = context_for(model, depth)
            res = boundary(ctx)
            assert len(res.chars) == 1, (model.name, depth)
            assert res.routes_agree
            (top,) = res.chars
            assert ctx.fragment.up_masks[top] == (1 << ctx.fragment.size()) - 1


def test_boundary_f2(f2):
    ctx1 = context_for(f2, 1)
    res1 = boundary(ctx1)
    assert len(res1.chars) == 2 and res1.routes_agree
    ctx2 = context_for(f2, 2)
    res2 = boundary(ctx2)
    assert len(res2.chars) == 4 and res2.routes_agree


def test_boundary_trivial_fragment(num23):
    ctx = context_for(num23, 0)
    res = boundary(ctx)
    assert len(res.chars) == 1


def test_boundary_is_invariant(all_models):
    for model in all_models:
        ctx = context_for(model, 2)
        res = boundary(ctx)
        for chi in res.chars:
            for g in ctx.gradings():
                r = theta_apply(ctx, g, chi)
                if r.status == "image":
                    assert r.image in res.chars


def test_maximal_seeds_are_the_characters_with_no_ideal_below(all_models):
    # a character is maximal exactly when no fragment ideal lies strictly
    # below its least ideal: its down mask is its own bit
    num479 = build_model({"family": "numerical", "generators": [4, 7, 9]})
    contexts = [context_for(model, depth)
                for model in all_models for depth in (1, 2)]
    contexts.append(_default_context(num479, 2))
    for ctx in contexts:
        assert boundary(ctx).maximal_seeds == maximal_filters(ctx.fragment)


def test_orbit_route_is_the_intersection_of_singleton_closures(all_models):
    # an intersection of closed sets is closed, so route two is the
    # intersection itself, and None when it is empty (<4,7,9> at depth 1)
    num479 = build_model({"family": "numerical", "generators": [4, 7, 9]})
    contexts = [context_for(model, depth)
                for model in all_models for depth in (1, 2)]
    contexts.append(_level(num479, 1)[0])
    empty = 0
    for ctx in contexts:
        closures = [invariant_closure(ctx, [c]).chars
                    for c in enumerate_characters(ctx.fragment)]
        inter = frozenset.intersection(*closures)
        assert boundary(ctx).orbit_route == (inter or None)
        if inter:
            assert invariant_closure(ctx, inter).chars == inter
        empty += not inter
    assert empty == 1


def test_unresolved_instances_match_the_closure_events(all_models):
    # route two's successor-graph count equals the events of one
    # invariant_closure per seed, with the intersection of the singleton
    # closures empty (<4,7,9> at depth 1) or not
    num479 = build_model({"family": "numerical", "generators": [4, 7, 9]})
    contexts = [context_for(model, depth)
                for model in all_models for depth in (1, 2)]
    contexts += [num357_context(), _level(num479, 1)[0],
                 _level(num479, 2)[0]]
    empty = 0
    for ctx in contexts:
        res = boundary(ctx)
        assert res.unresolved_instances == boundary_event_count(ctx), \
            ctx.model.name
        empty += res.orbit_route is None
    assert empty == 1


# ---------------------------------------------------------------------------
# the resolution tower: each depth refines the one below

def _default_context(model, depth):
    """The theta context at ``depth`` with the run's default caps."""
    caps = cli._caps_for(model, dict(cli.DEFAULT_CAPS, trace_depth=depth))
    lat = enumerate_ideals(model, depth, caps["gen_len"], caps["radius"],
                           caps["max_ideals"])
    fam = enumerate_vwords(model, depth, caps["gen_len"], caps["radius"])
    return ThetaContext(Fragment.from_lattice(lat), fam)


def _level(model, depth):
    """Context and boundary at ``depth`` with the run's default caps."""
    ctx = _default_context(model, depth)
    return ctx, boundary(ctx)


@pytest.mark.parametrize("config,depth,sizes", [
    ({"family": "free_monoid", "rank": 2}, 2, (8, 4)),
    ({"family": "free_monoid", "rank": 2}, 3, (16, 8)),
    ({"family": "free_monoid", "rank": 3}, 2, (27, 9)),
    ({"family": "free_abelian", "rank": 2}, 2, (1, 1)),
    ({"family": "free_abelian", "rank": 1}, 3, (1, 1)),
    ({"family": "numerical", "generators": [2, 3]}, 2, (1, 1)),
    ({"family": "numerical", "generators": [3, 5, 7]}, 2, (1, 1)),
], ids=["F2+ d=2", "F2+ d=3", "F3+ d=2", "N^2 d=2", "N^1 d=3", "<2,3> d=2",
        "<3,5,7> d=2"])
def test_resolution_tower(config, depth, sizes):
    # the depth-(d+1) run keeps every depth-d ideal and word, its boundary
    # restricts onto the depth-d boundary exactly, and no definite depth-d
    # freeness verdict changes one level deeper
    model = build_model(config)
    lo, lo_bd = _level(model, depth)
    hi, hi_bd = _level(model, depth + 1)
    assert set(lo.fragment.pos_of_token) <= set(hi.fragment.pos_of_token)
    assert ({v.dedup_key() for v in lo.family.members}
            <= {v.dedup_key() for v in hi.family.members})
    assert (len(hi_bd.chars), len(lo_bd.chars)) == sizes
    restricted = {restrict(c, hi.fragment, lo.fragment) for c in hi_bd.chars}
    assert all(lo.fragment.is_filter(bits) for bits in restricted)
    assert restricted == {lo.fragment.up_masks[c] for c in lo_bd.chars}
    g_list = lo.gradings()
    lo_v = topological_freeness_probe(lo, lo_bd.chars, g_list)
    hi_v = topological_freeness_probe(hi, hi_bd.chars, g_list)
    definite = [g for g in g_list if lo_v[g].status != "inconclusive"]
    assert definite
    assert [hi_v[g].status for g in definite] == \
        [lo_v[g].status for g in definite]


# ---------------------------------------------------------------------------
# freeness probe

def test_freeness_rejects_unit(n1):
    ctx = context_for(n1, 2)
    bd = boundary(ctx)
    with pytest.raises(ModelError):
        topological_freeness_probe(ctx, bd.chars, [n1.unit])


def test_freeness_chain_not_free(n1):
    ctx = context_for(n1, 2)
    bd = boundary(ctx)
    verdicts = topological_freeness_probe(ctx, bd.chars, [(1,), (2,), (-1,), (-2,)])
    for g, v in verdicts.items():
        assert v.status == "not-free", g
        assert len(v.fixed) == 1


def test_freeness_f2_depth2(f2):
    ctx = context_for(f2, 2)
    bd = boundary(ctx)
    tested = [g for g in ctx.gradings()
              if sum(ch.isupper() for ch in g) <= 1]
    verdicts = topological_freeness_probe(ctx, bd.chars, tested)
    assert len(tested) >= 10
    for g, v in verdicts.items():
        assert v.status == "free", (g, v.note)


def test_freeness_f2_mixed_has_empty_domain(f2):
    # a^-1 b is not a grading of any nonzero word, so its domain is empty
    ctx = context_for(f2, 2)
    bd = boundary(ctx)
    verdicts = topological_freeness_probe(ctx, bd.chars, ["Ab"])
    assert verdicts["Ab"].status == "free"
    assert verdicts["Ab"].note == "empty domain"


def test_freeness_f2_deep_inverse_is_inconclusive(f2):
    # the depth-2 fragment honestly cannot resolve two division steps
    ctx = context_for(f2, 2)
    bd = boundary(ctx)
    verdicts = topological_freeness_probe(ctx, bd.chars, ["AA"])
    assert verdicts["AA"].status == "inconclusive"


def test_freeness_probe_matches_the_per_character_reference(all_models):
    # the probe reads tables and ANDs masks; the reference classifies one
    # theta_apply at a time and lists each cylinder character by
    # character.  Every verdict field must agree on the boundary, on all
    # characters and on each maximal seed alone, for every grading and for
    # those no word carries: one whose gP meets P, which a deeper word may
    # carry, and on the free monoids one whose gP misses P, whose domain is
    # empty at every depth.  The sets that are not invariant reach two
    # branches a boundary never does: an image outside the set and an
    # ambiguous entry with no completion in it
    contexts = [context_for(model, depth)
                for model in all_models for depth in (1, 2)]
    contexts += [_default_context(build_model(config), depth)
                 for config, depth in (
                     ({"family": "free_monoid", "rank": 3}, 3),
                     ({"family": "numerical", "generators": [4, 7, 9]}, 2))]
    counts = collections.Counter()
    for ctx in contexts:
        model, up = ctx.model, ctx.fragment.up_masks
        gradings = ctx.gradings()
        uncarried = {}   # meets_p(g) -> the first such uncarried product
        for g in (model.mul(g1, g2) for g1 in gradings for g2 in gradings):
            if g not in ctx.family.by_grading:
                uncarried.setdefault(model.meets_p(g), g)
        g_list = [*gradings, *uncarried.values()]
        bd = boundary(ctx)
        sets = [bd.chars, enumerate_characters(ctx.fragment),
                *[(seed,) for seed in bd.maximal_seeds]]
        for chars in sets:
            got = topological_freeness_probe(ctx, chars, g_list)
            assert got == freeness_reference(ctx, chars, g_list), model.name
            counts["sets"] += 1
            counts["free monoid sets"] += model.family == "free_monoid"
            for g in uncarried.values():
                counts[got[g].status, got[g].note] += 1
            for g in gradings:
                for chi in chars:
                    a = ctx.table(g)[chi]
                    if a >= 0:
                        counts["escaped"] += a not in chars
                    elif a == spectrum.AMBIGUOUS:
                        bits, settled = ctx.details[g, chi]
                        counts["no completion"] += not any(
                            not (up[b] ^ bits) & settled for b in chars)
    assert counts["inconclusive", "no word carries it at the tested depth"] \
        == counts["sets"]
    assert counts["free", "empty domain"] == counts["free monoid sets"] > 0
    assert counts["escaped"] and counts["no completion"]


# ---------------------------------------------------------------------------
# automorphisms: a map of G that keeps P fixes every run's data as a whole

def _automorphic_data(ctx):
    """What a run reads, keyed by elements and tokens so that a map of G
    can act on it: each lattice token's depth, the words per grading, the
    boundary supports as token sets, each grading's freeness verdict and
    the composition-law triples checked and failed per pair of
    gradings."""
    model, frag = ctx.model, ctx.fragment
    tok = [frag.ideal_at(p).exact for p in range(frag.size())]
    gradings = ctx.gradings()
    bd = boundary(ctx)
    verdicts = topological_freeness_probe(ctx, bd.chars, gradings)
    law = collections.Counter()
    for g2 in gradings:
        t2 = ctx.table(g2)
        for g1 in gradings:
            g12 = model.mul(g1, g2)
            if g12 in ctx.family.by_grading:
                t1, t12 = ctx.table(g1), ctx.table(g12)
                for chi, a in enumerate(t2):
                    if a >= 0 and t1[a] >= 0 and t12[chi] >= 0:
                        law[g1, g2, "checked"] += 1
                        law[g1, g2, "failed"] += t1[a] != t12[chi]
    return {
        "ideals": dict(zip(tok, frag.depths)),
        "words": {g: len(ix) for g, ix in ctx.family.by_grading.items()},
        "supports": {frozenset(tok[p] for p in frag.support(chi))
                     for chi in bd.chars},
        "freeness": {g: (v.status, v.note, len(v.fixed), len(v.moved),
                         len(v.unresolved)) for g, v in verdicts.items()},
        "law": law,
    }


def _mapped(data, sigma):
    def tok(t):
        return t if t == EMPTY else (t[0], sigma(t[1]))

    return {
        "ideals": {tok(t): d for t, d in data["ideals"].items()},
        "words": {sigma(g): n for g, n in data["words"].items()},
        "supports": {frozenset(map(tok, s)) for s in data["supports"]},
        "freeness": {sigma(g): v for g, v in data["freeness"].items()},
        "law": collections.Counter({(sigma(g1), sigma(g2), kind): n
                                    for (g1, g2, kind), n
                                    in data["law"].items()}),
    }


def _letters(src, dst):
    table = str.maketrans(src + src.upper(), dst + dst.upper())
    return lambda w: w.translate(table)


@pytest.mark.parametrize("config,depth,sigma", [
    ({"family": "free_abelian", "rank": 2}, 2, lambda v: (v[1], v[0])),
    ({"family": "free_monoid", "rank": 2}, 3, _letters("ab", "ba")),
    ({"family": "free_monoid", "rank": 3}, 2, _letters("abc", "bca")),
], ids=["N^2 swap", "F2+ a<->b", "F3+ a->b->c"])
def test_runs_are_closed_under_automorphisms(config, depth, sigma):
    # the map permutes the lattice's tokens keeping their depths, the
    # gradings keeping their word counts, the boundary supports, the
    # freeness verdicts and the law triples per pair of gradings; so the
    # counts of ideals, words, gradings and law triples do not change
    data = _automorphic_data(_default_context(build_model(config), depth))
    assert _mapped(data, sigma) == data
    moved = [g for g in data["words"] if sigma(g) != g]
    assert moved and data["law"] and len(data["supports"]) >= 1
