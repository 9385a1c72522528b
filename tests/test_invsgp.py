import itertools

import pytest

from oracles import (contains, exhaustive_vwords, ideal_eq, left_mul,
                     pointwise_word_apply, uncached_walk)
from sgclab import invsgp
from sgclab.cli import _family_json, _ideal_json, _lattice_json, _word_json
from sgclab.fock import rep_vword, word_reach
from sgclab.ideals import (CapExceeded, ConstructibleIdeal, WordTrace,
                           enumerate_ideals, from_trace, full_ideal,
                           intersect)
from sgclab.invsgp import (compose, enumerate_vwords, idempotent_vword,
                           make_vword, semilattice, star, vword_eq, zero_vword)
from sgclab.models import EMPTY, ModelError, build_model


def test_make_vword_shift(all_models):
    for model in all_models:
        p = model.generators[0]
        v = make_vword(model, WordTrace(((model.unit, p),)))
        assert v.grading == p
        assert v.dom == full_ideal(model).exact
        assert v.ran == left_mul(p, full_ideal(model)).exact


def test_make_vword_isometry_relation(all_models):
    # the single pair (p, p) realizes the identity
    for model in all_models:
        p = model.generators[-1]
        v = make_vword(model, WordTrace(((p, p),)))
        assert v.grading == model.unit
        assert v.dom == full_ideal(model).exact
        assert v.ran == full_ideal(model).exact


def test_make_vword_validates_raw_pairs(f2):
    with pytest.raises(ModelError):
        make_vword(f2, [("ax", "")])


def test_make_vword_zero(f2):
    v = make_vword(f2, WordTrace((("a", "b"),)))
    assert v.is_zero
    assert rep_vword(v, 6).cols == {}


def test_compose_shift_relation(n2):
    p, q = (1, 0), (0, 1)
    vp = make_vword(n2, WordTrace((((0, 0), p),)))
    vq = make_vword(n2, WordTrace((((0, 0), q),)))
    vpq = make_vword(n2, WordTrace((((0, 0), (1, 1)),)))
    assert vword_eq(compose(vp, vq), vpq) is True


def test_compose_idempotents_intersect(num23):
    P = full_ideal(num23)
    x, y = left_mul(2, P), left_mul(3, P)
    exy = compose(idempotent_vword(x), idempotent_vword(y))
    assert vword_eq(exy, idempotent_vword(intersect(x, y))) is True


def test_zero_absorbs(f2):
    z = zero_vword(f2)
    va = make_vword(f2, WordTrace((("", "a"),)))
    assert compose(z, va).is_zero and compose(va, z).is_zero
    assert star(z).is_zero


def test_star_swaps_dom_ran(f2):
    va = make_vword(f2, WordTrace((("", "a"),)))
    sa = star(va)
    assert sa.grading == "A"
    assert sa.dom == va.ran
    assert sa.ran == va.dom
    assert vword_eq(star(sa), va) is True
    e = idempotent_vword(from_trace(f2, va.trace))
    assert vword_eq(star(e), e) is True


def test_word_sides_are_walk_tokens(all_models, family_of):
    # a word's sides are exact tokens, not ideal objects: the domain is the
    # walk of the starred trace from P, the range the walk of the trace
    for model in all_models:
        fam = family_of(model)
        full = model.exact_full()
        for v in fam.members:
            assert v.dom == uncached_walk(model, v.trace.star().pairs, full)
            assert v.ran == uncached_walk(model, v.trace.pairs, full)
            s = star(v)
            assert (s.dom, s.ran) == (v.ran, v.dom)
        for z in (zero_vword(model), fam.zero):
            if z is not None:
                assert (z.dom, z.ran) == (EMPTY, EMPTY)


def test_star_reverses_pairs(n1):
    v = make_vword(n1, WordTrace((((1,), (2,)), ((0,), (3,)))))
    assert star(v).trace.pairs == (((3,), (0,)), ((2,), (1,)))


def test_vword_eq_collapse_example(n1):
    # in the chain model the pair (2, 3) realizes the same shift as (e, 1):
    # both have grading 1 and full domain (isometry relation collapse)
    v = make_vword(n1, WordTrace((((2,), (3,)),)))
    w = make_vword(n1, WordTrace((((0,), (1,)),)))
    assert vword_eq(v, w) is True
    basis, index = n1.basis(10)
    shift = {index[x]: index[(x[0] + 1,)] for x in basis[:-1]}
    assert rep_vword(v, 10).cols == rep_vword(w, 10).cols == shift


def test_vword_eq_detects_domain_restriction(n1):
    v = make_vword(n1, WordTrace((((0,), (1,)),)))
    restricted = compose(v, idempotent_vword(left_mul((1,), full_ideal(n1))))
    assert vword_eq(v, restricted) is False


def test_vword_eq_two_spellings_of_same_projection(num23):
    P = full_ideal(num23)
    a = idempotent_vword(left_mul(2, left_mul(3, P)))
    b = idempotent_vword(left_mul(3, left_mul(2, P)))
    assert a.trace.pairs != b.trace.pairs
    assert vword_eq(a, b) is True


def test_action_matches_pointwise_oracle(all_models, family_of):
    # a word's matrix maps each basis point where stepping through its
    # factors does, and drops it where the steps fail or leave the basis
    for model in all_models:
        fam = family_of(model)
        n = 4 if model.family == "free_monoid" else 6
        basis, index = model.basis(n)
        checked = 0
        for v in fam.members:
            if word_reach(v) > n:
                continue
            cols = rep_vword(v, n).cols
            for x in basis:
                want = pointwise_word_apply(model, v.trace.pairs, x)
                assert cols.get(index[x]) == index.get(want)
            checked += 1
        assert checked > 0


def test_dom_is_pointwise_domain(all_models, family_of):
    for model in all_models:
        fam = family_of(model)
        sample = model.enumerate_p(3 if model.family == "free_monoid" else 5)
        for v in fam.members:
            for x in sample:
                applies = pointwise_word_apply(model, v.trace.pairs, x) is not None
                assert contains(model, v.dom, x) == applies


def test_inverse_semigroup_laws(all_models, family_of):
    for model in all_models:
        fam = family_of(model)
        for v in fam.members:
            assert vword_eq(compose(compose(v, star(v)), v), v) is True
        pairs = list(itertools.product(fam.members[:12], repeat=2))
        for v, w in pairs:
            assert vword_eq(star(compose(v, w)), compose(star(w), star(v))) is True


def test_star_of_a_star_is_the_word(all_models, family_of):
    # a star links its trace back, so starring twice returns the trace
    # itself and the same word
    for model in all_models:
        for v in family_of(model).members:
            vv = star(star(v))
            assert vv.trace is v.trace
            assert vv.dedup_key() == v.dedup_key()
            assert (vv.grading, vv.dom, vv.ran) == (v.grading, v.dom, v.ran)


def test_compose_matches_concatenated_trace(all_models, family_of):
    # compose walks from the factors' tokens; make_vword evaluates the
    # concatenated trace from P: they agree in every field
    for model in all_models:
        fam = family_of(model)
        for v in fam.members:
            for w in fam.members:
                got = compose(v, w)
                want = make_vword(
                    model, WordTrace(v.trace.pairs + w.trace.pairs))
                assert got.is_zero == want.is_zero, (v.trace, w.trace)
                if want.is_zero:
                    continue
                assert got.grading == want.grading
                assert got.dom == want.dom
                assert got.ran == want.ran
                assert got.trace == want.trace
                assert _word_json(got, 3, {}) == _word_json(want, 3, {})


def test_idempotent_word_matches_doubled_trace(all_models, lattice_of):
    # the diagonal word of x takes x's token as domain and range; the
    # trace x . x* evaluates from P to the same word
    for model in all_models:
        lat = lattice_of(model, depth=2)
        for x in lat.ideals:
            got = idempotent_vword(x)
            if x.trace is None:
                assert got.is_zero
                continue
            want = make_vword(model, WordTrace(x.trace.pairs
                                               + x.trace.star().pairs))
            assert not got.is_zero and not want.is_zero
            assert (got.grading, got.dom, got.ran, got.trace) == \
                (want.grading, want.dom, want.ran, want.trace)


def test_grading_multiplicative(all_models, family_of):
    for model in all_models:
        fam = family_of(model)
        for v in fam.members[:15]:
            for w in fam.members[:15]:
                vw = compose(v, w)
                if not vw.is_zero:
                    assert vw.grading == model.mul(v.grading, w.grading)


def test_range_ideal_is_vvstar(all_models, family_of):
    for model in all_models:
        fam = family_of(model)
        for v in fam.members[:15]:
            vv = compose(v, star(v))
            assert vv.grading == model.unit
            assert vv.dom == v.ran
            assert vv.ran == v.ran


def test_trivially_graded_collapse(all_models, family_of):
    # grading e forces the word to be the diagonal projection of its domain
    for model in all_models:
        fam = family_of(model)
        for v in fam.members:
            if v.grading == model.unit:
                assert v.dom == v.ran
                dom = from_trace(model, v.trace.star())
                assert vword_eq(v, idempotent_vword(dom)) is True


def test_equality_detected_pairs_satisfy_projection_criterion(all_models, family_of):
    # when two traces realize one word, the four cross products collapse to
    # the same idempotent
    for model in all_models:
        fam = family_of(model)
        duplicates = exhaustive_vwords(model, 2, fam.params["gen_len"])[3]
        for idx, dup_trace in duplicates[:25]:
            v = fam.members[idx]
            w = make_vword(model, dup_trace)
            prods = [compose(v, star(v)), compose(w, star(w)),
                     compose(w, star(v)), compose(v, star(w))]
            for prod in prods:
                assert prod.is_idempotent()
                assert vword_eq(prod, prods[0]) is True


def test_semilattice_table(num23, f2, lattice_of):
    for model in (num23, f2):
        lat = lattice_of(model, depth=1)
        idems = [idempotent_vword(x) for x in lat.ideals]
        for i, row in enumerate(semilattice(lat)):
            for j, k in enumerate(row):
                got = compose(idems[i], idems[j])
                assert vword_eq(got, idems[k]) is True


def test_semilattice_f2_zero_row(f2, lattice_of):
    lat = lattice_of(f2, depth=1)
    aP = [i for i, x in enumerate(lat.ideals) if x.exact == ("word", "a")][0]
    bP = [i for i, x in enumerate(lat.ideals) if x.exact == ("word", "b")][0]
    assert lat.meet[aP][bP] == lat.empty_index
    assert semilattice(lat)[aP][bP] == lat.empty_index
    assert compose(idempotent_vword(lat.ideals[aP]),
                   idempotent_vword(lat.ideals[bP])).is_zero


def test_enumerate_depth0_is_identity(all_models):
    for model in all_models:
        fam = enumerate_vwords(model, 0, 1, 10 if model.family != "free_monoid" else 5)
        assert len(fam.members) == 1
        v = fam.members[0]
        assert v.grading == model.unit
        assert v.dom == full_ideal(model).exact


def test_enumerate_f2_depth1(f2, family_of):
    fam = enumerate_vwords(f2, 1, 1, 6)
    gradings = sorted(v.grading for v in fam.members)
    assert gradings == ["", "A", "B", "a", "b"]
    assert fam.zero is not None


def test_enumerate_dedup_keeps_shortest_trace(n1, family_of):
    fam = family_of(n1)
    duplicates = exhaustive_vwords(n1, 2, fam.params["gen_len"])[3]
    for v in fam.members:
        for idx, dup in duplicates:
            if idx < len(fam.members):
                assert len(fam.members[idx].trace.pairs) <= len(dup.pairs)


def test_classification_by_grading_and_domain(n1, family_of):
    fam = family_of(n1)
    seen = set()
    for v in fam.members:
        key = (v.grading, v.dom)
        assert key not in seen
        seen.add(key)


def _family_view(members, zero, by_grading):
    return ([(v.trace.pairs, v.grading, v.dom) for v in members],
            zero is not None,
            [(g, tuple(ix)) for g, ix in by_grading.items()])


_MODELS = {
    "N^1": {"family": "free_abelian", "rank": 1},
    "N^2": {"family": "free_abelian", "rank": 2},
    "F2+": {"family": "free_monoid", "rank": 2},
    "F3+": {"family": "free_monoid", "rank": 3},
    "<2,3>": {"family": "numerical", "generators": [2, 3]},
    "<3,5>": {"family": "numerical", "generators": [3, 5]},
}


@pytest.mark.parametrize(
    "name,depth,gen_len",
    [(name, depth, None) for name in _MODELS for depth in range(4)]
    + [("F2+", 4, None), ("F2+", 2, 2)])
def test_enumeration_matches_exhaustive_walk(name, depth, gen_len):
    model = build_model(_MODELS[name])
    gen_len = gen_len or model.default_gen_len
    fam = enumerate_vwords(model, depth, gen_len, model.default_radius)
    members, zero, by_grading, duplicates = exhaustive_vwords(model, depth,
                                                              gen_len)
    got = _family_view(fam.members, fam.zero, fam.by_grading)
    assert got == _family_view(members, zero, by_grading)
    assert fam.duplicates == min(200, len(duplicates))


def test_enumeration_extends_one_trace_per_word(f2, monkeypatch):
    # one trace evaluation for the identity and one per pair; every longer
    # word is a representative composed on tokens with the word of one
    # pair, and only a new word builds its composite trace
    made, composed, built = [], [], []
    real_make = invsgp.make_vword
    real_tokens, real_trace = invsgp._tokens, invsgp._composite_trace

    def make_counted(*args, **kwargs):
        made.append(args)
        return real_make(*args, **kwargs)

    def tokens_counted(v, w):
        composed.append((v, w))
        return real_tokens(v, w)

    def trace_counted(v, w):
        built.append((v, w))
        return real_trace(v, w)

    monkeypatch.setattr(invsgp, "make_vword", make_counted)
    monkeypatch.setattr(invsgp, "_tokens", tokens_counted)
    monkeypatch.setattr(invsgp, "_composite_trace", trace_counted)
    fam = enumerate_vwords(f2, 5, 1, 6)
    pairs = len(f2.enumerate_p(fam.params["gen_len"])) ** 2
    assert len(made) == 1 + pairs
    assert 0 < len(composed) <= len(fam.members) * pairs
    assert len(built) == len(fam.members) - 1


def test_an_empty_domain_ends_the_extension(f2, monkeypatch):
    # an extension whose domain walk is empty is the zero word, and its
    # range is not walked
    fam = enumerate_vwords(f2, 2, 1, 6)
    cand = f2.enumerate_p(1)
    ones = [v for p in cand for q in cand
            for v in [make_vword(f2, WordTrace(((p, q),)))] if not v.is_zero]
    walks = []
    real = invsgp.walk

    def counted(model, pairs, tok):
        walks.append(real(model, pairs, tok))
        return walks[-1]

    monkeypatch.setattr(invsgp, "walk", counted)
    empty = 0
    for v in fam.members:
        for one in ones:
            walks.clear()
            got = invsgp._tokens(v, one)
            if walks[0] == EMPTY:
                empty += 1
                assert got is None and len(walks) == 1
    assert empty > 0


def test_enumeration_caps(f2):
    fam = enumerate_vwords(f2, 3, 1, 6)
    assert fam.duplicates == len(exhaustive_vwords(f2, 3)[3]) == 200
    assert len(enumerate_vwords(f2, 3, 1, 6, cap=len(fam.members)).members) \
        == len(fam.members)
    with pytest.raises(CapExceeded):
        enumerate_vwords(f2, 3, 1, 6, cap=len(fam.members) - 1)


# ---------------------------------------------------------------------------
# rendered sides, served from the run's prefix memo

def _fresh_render(config, trace, tok, radius):
    """The side as a model instance with empty caches and an empty prefix
    memo renders it."""
    return _ideal_json(ConstructibleIdeal(build_model(config), trace, tok),
                       radius, {})


@pytest.mark.parametrize("config,depth", [
    ({"family": "numerical", "generators": [3, 5, 7]}, 2),
    ({"family": "free_monoid", "rank": 2}, 3)])
def test_rendered_sides_match_a_fresh_render(config, depth):
    # the lattice nodes are rendered first, so the export's sides read the
    # listings the nodes left in the prefix memo wherever tokens meet
    model = build_model(config)
    gen_len, radius = model.default_gen_len, model.default_radius
    lat = enumerate_ideals(model, depth, gen_len, radius)
    fam = enumerate_vwords(model, depth, gen_len, radius)
    prefixes = {}
    nodes = _lattice_json(lat, prefixes)["nodes"]
    export = _family_json(fam, prefixes)["members"]
    for x, node in zip(lat.ideals, nodes):
        node = {k: v for k, v in node.items() if k not in ("id", "depth")}
        assert node == _fresh_render(config, x.trace, x.exact, radius)
    for v, doc in zip(fam.members, export):
        assert doc["dom"] == _fresh_render(config, v.trace.star(), v.dom,
                                           radius)
        assert doc["ran"] == _fresh_render(config, v.trace, v.ran, radius)


def test_prefix_cache_keys_on_the_radius():
    config = {"family": "free_monoid", "rank": 2}
    full = full_ideal(build_model(config))
    prefixes = {}
    short, longer = _ideal_json(full, 1, prefixes), _ideal_json(full, 3, prefixes)
    assert set(prefixes) == {(full.exact, 1), (full.exact, 3)}
    assert short["members_prefix"] == ["", "a", "b"]
    assert len(longer["members_prefix"]) == 15
    assert short == _fresh_render(config, full.trace, full.exact, 1)
    assert longer == _fresh_render(config, full.trace, full.exact, 3)


def test_export_lists_each_side_token_once(monkeypatch):
    # F2+ at depth 6: 1,538 listings for about 130 side tokens if each
    # side listed its members again
    model = build_model({"family": "free_monoid", "rank": 2})
    fam = enumerate_vwords(model, 6, 1, 6)
    listed = []
    real = model.exact_members_upto

    def counted(tok, n):
        listed.append(tok)
        return real(tok, n)

    monkeypatch.setattr(model, "exact_members_upto", counted)
    _family_json(fam, {})
    sides = {tok for v in fam.members for tok in (v.dom, v.ran)}
    assert len(listed) == len(set(listed)) <= len(sides)
    assert set(listed) <= sides
