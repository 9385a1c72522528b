import itertools

import pytest

from oracles import pointwise_word_apply
from sgclab import invsgp
from sgclab.ideals import (CapExceeded, WordTrace, from_trace, full_ideal,
                           ideal_eq, intersect, left_mul)
from sgclab.invsgp import (compose, enumerate_vwords, idempotent_vword,
                           make_vword, semilattice, star, vword_eq, zero_vword)
from sgclab.models import ModelError, WithoutExactIdeals, build_model


def test_make_vword_shift(all_models):
    for model in all_models:
        radius = 6 if model.family == "free_monoid" else 15
        p = model.generators[0]
        v = make_vword(model, WordTrace(((model.unit, p),)), radius)
        assert v.grading == p
        assert ideal_eq(v.dom, full_ideal(model, radius)) is True
        assert ideal_eq(v.ran, left_mul(p, full_ideal(model, radius))) is True


def test_make_vword_isometry_relation(all_models):
    # the single pair (p, p) realizes the identity
    for model in all_models:
        radius = 6 if model.family == "free_monoid" else 15
        p = model.generators[-1]
        v = make_vword(model, WordTrace(((p, p),)), radius)
        assert v.grading == model.unit
        assert ideal_eq(v.dom, full_ideal(model, radius)) is True
        assert ideal_eq(v.ran, full_ideal(model, radius)) is True


def test_make_vword_zero(f2):
    v = make_vword(f2, WordTrace((("a", "b"),)), 6)
    assert v.is_zero
    assert v.apply("") is None


def test_compose_shift_relation(n2):
    p, q = (1, 0), (0, 1)
    vp = make_vword(n2, WordTrace((((0, 0), p),)), 12)
    vq = make_vword(n2, WordTrace((((0, 0), q),)), 12)
    vpq = make_vword(n2, WordTrace((((0, 0), (1, 1)),)), 12)
    assert vword_eq(compose(vp, vq), vpq) is True


def test_compose_idempotents_intersect(num23):
    P = full_ideal(num23, 25)
    x, y = left_mul(2, P), left_mul(3, P)
    exy = compose(idempotent_vword(x), idempotent_vword(y))
    assert vword_eq(exy, idempotent_vword(intersect(x, y))) is True


def test_zero_absorbs(f2):
    z = zero_vword(f2, 6)
    va = make_vword(f2, WordTrace((("", "a"),)), 6)
    assert compose(z, va).is_zero and compose(va, z).is_zero
    assert star(z).is_zero


def test_star_swaps_dom_ran(f2):
    va = make_vword(f2, WordTrace((("", "a"),)), 6)
    sa = star(va)
    assert sa.grading == "A"
    assert ideal_eq(sa.dom, va.ran) is True
    assert ideal_eq(sa.ran, va.dom) is True
    assert vword_eq(star(sa), va) is True
    e = idempotent_vword(va.ran)
    assert vword_eq(star(e), e) is True


def test_star_reverses_pairs(n1):
    v = make_vword(n1, WordTrace((((1,), (2,)), ((0,), (3,)))), 15)
    assert star(v).trace.pairs == (((3,), (0,)), ((2,), (1,)))


def test_vword_eq_collapse_example(n1):
    # in the chain model the pair (2, 3) realizes the same shift as (e, 1):
    # both have grading 1 and full domain (isometry relation collapse)
    v = make_vword(n1, WordTrace((((2,), (3,)),)), 15)
    w = make_vword(n1, WordTrace((((0,), (1,)),)), 15)
    assert vword_eq(v, w) is True
    for x in n1.enumerate_p(10):
        assert v.apply(x) == w.apply(x) == (x[0] + 1,)


def test_vword_eq_detects_domain_restriction(n1):
    v = make_vword(n1, WordTrace((((0,), (1,)),)), 15)
    restricted = compose(v, idempotent_vword(left_mul((1,), full_ideal(n1, 15))))
    assert vword_eq(v, restricted) is False


def test_vword_eq_two_spellings_of_same_projection(num23):
    P = full_ideal(num23, 25)
    a = idempotent_vword(left_mul(2, left_mul(3, P)))
    b = idempotent_vword(left_mul(3, left_mul(2, P)))
    assert a.trace.pairs != b.trace.pairs
    assert vword_eq(a, b) is True


def test_action_matches_pointwise_oracle(all_models, family_of):
    for model in all_models:
        fam = family_of(model)
        sample = model.enumerate_p(4 if model.family == "free_monoid" else 6)
        for v in fam.members:
            for x in sample:
                assert v.apply(x) == pointwise_word_apply(model, v.trace.pairs, x)


def test_dom_is_pointwise_domain(all_models, family_of):
    for model in all_models:
        fam = family_of(model)
        sample = model.enumerate_p(3 if model.family == "free_monoid" else 5)
        for v in fam.members:
            for x in sample:
                applies = pointwise_word_apply(model, v.trace.pairs, x) is not None
                assert v.dom.contains(x) == applies


def test_inverse_semigroup_laws(all_models, family_of):
    for model in all_models:
        fam = family_of(model)
        for v in fam.members:
            assert vword_eq(compose(compose(v, star(v)), v), v) is True
        pairs = list(itertools.product(fam.members[:12], repeat=2))
        for v, w in pairs:
            assert vword_eq(star(compose(v, w)), compose(star(w), star(v))) is True


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
            assert ideal_eq(vv.dom, v.ran) is True
            assert ideal_eq(vv.ran, v.ran) is True


def test_trivially_graded_collapse(all_models, family_of):
    # grading e forces the word to be the diagonal projection of its domain
    for model in all_models:
        fam = family_of(model)
        for v in fam.members:
            if v.grading == model.unit:
                assert ideal_eq(v.dom, v.ran) is True
                assert vword_eq(v, idempotent_vword(v.dom)) is True


def test_equality_detected_pairs_satisfy_projection_criterion(all_models, family_of):
    # when two traces realize one word, the four cross products collapse to
    # the same idempotent
    for model in all_models:
        fam = family_of(model)
        for idx, dup_trace in fam.eq_pairs[:25]:
            v = fam.members[idx]
            w = make_vword(model, dup_trace, v.dom.radius)
            prods = [compose(v, star(v)), compose(w, star(w)),
                     compose(w, star(v)), compose(v, star(w))]
            for prod in prods:
                assert prod.is_idempotent()
                assert vword_eq(prod, prods[0]) is True


def test_semilattice_table(num23, f2, lattice_of):
    for model in (num23, f2):
        lat = lattice_of(model, depth=1)
        sl = semilattice(lat)
        idems = sl["idempotents"]
        for (i, j), k in sl["table"].items():
            got = compose(idems[i], idems[j])
            assert vword_eq(got, idems[k]) is True


def test_semilattice_f2_zero_row(f2, lattice_of):
    lat = lattice_of(f2, depth=1)
    aP = [i for i, x in enumerate(lat.ideals) if x.exact == ("word", "a")][0]
    bP = [i for i, x in enumerate(lat.ideals) if x.exact == ("word", "b")][0]
    assert lat.intersect_table[(aP, bP)] == lat.empty_index
    sl = semilattice(lat)
    assert compose(sl["idempotents"][aP], sl["idempotents"][bP]).is_zero


def test_enumerate_depth0_is_identity(all_models):
    for model in all_models:
        fam = enumerate_vwords(model, 0, 1, 10 if model.family != "free_monoid" else 5)
        assert len(fam.members) == 1
        v = fam.members[0]
        assert v.grading == model.unit
        assert ideal_eq(v.dom, full_ideal(model, v.dom.radius)) is True


def test_enumerate_f2_depth1(f2, family_of):
    fam = enumerate_vwords(f2, 1, 1, 6)
    gradings = sorted(v.grading for v in fam.members)
    assert gradings == ["", "A", "B", "a", "b"]
    assert fam.zero is not None


def test_enumerate_dedup_keeps_shortest_trace(n1, family_of):
    fam = family_of(n1)
    for v in fam.members:
        for idx, dup in fam.eq_pairs:
            if idx < len(fam.members):
                assert len(fam.members[idx].trace.pairs) <= len(dup.pairs)


def test_classification_by_grading_and_domain(n1, family_of):
    fam = family_of(n1)
    seen = set()
    for v in fam.members:
        key = (v.grading, v.dom.dedup_key())
        assert key not in seen
        seen.add(key)


def _exhaustive_vwords(model, max_trace_len, gen_len=None, radius=None,
                       eq_log_cap=200):
    """Reference walk that extends every trace, breadth first, pairs in
    order: (members, zero, by_grading, eq_pairs) as enumerate_vwords
    defines them."""
    gen_len = model.default_gen_len if gen_len is None else gen_len
    radius = model.default_radius if radius is None else radius
    cand = model.enumerate_p(gen_len)
    pairs = [(p, q) for p in cand for q in cand]
    members, keys, eq_pairs, by_grading = [], {}, [], {}
    zero = None

    def visit(trace_pairs):
        nonlocal zero
        v = make_vword(model, WordTrace(trace_pairs), radius)
        key = v.dedup_key()
        if key == ("zero",):
            if zero is None:
                zero = v
            return
        got = keys.get(key)
        if got is not None:
            if len(eq_pairs) < eq_log_cap:
                eq_pairs.append((got, WordTrace(trace_pairs)))
            return
        keys[key] = len(members)
        by_grading.setdefault(v.grading, []).append(len(members))
        members.append(v)

    visit(())
    frontier = [()]
    for _ in range(max_trace_len):
        frontier = [tp + (pq,) for tp in frontier for pq in pairs]
        for seq in frontier:
            visit(seq)
    return members, zero, by_grading, eq_pairs


def _family_view(members, zero, by_grading, eq_pairs):
    return ([(v.trace.pairs, v.grading, v.dom.dedup_key()) for v in members],
            zero is not None,
            [(g, tuple(ix)) for g, ix in by_grading.items()],
            [(i, t.pairs) for i, t in eq_pairs])


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
    fam = enumerate_vwords(model, depth, gen_len)
    got = _family_view(fam.members, fam.zero, fam.by_grading, fam.eq_pairs)
    assert got == _family_view(*_exhaustive_vwords(model, depth, gen_len))


def test_enumeration_extends_one_trace_per_word(f2, monkeypatch):
    calls = []
    real = invsgp.make_vword

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(invsgp, "make_vword", counted)
    fam = enumerate_vwords(f2, 5)
    pairs = len(f2.enumerate_p(fam.params["gen_len"])) ** 2
    assert 0 < len(calls) <= 1 + len(fam.members) * pairs


def test_enumeration_caps(f2):
    fam = enumerate_vwords(f2, 3)
    assert len(fam.eq_pairs) == 200
    short = enumerate_vwords(f2, 3, eq_log_cap=7)
    assert [(i, t.pairs) for i, t in short.eq_pairs] == \
        [(i, t.pairs) for i, t in fam.eq_pairs[:7]]
    assert enumerate_vwords(f2, 3, eq_log_cap=0).eq_pairs == ()
    assert len(enumerate_vwords(f2, 3, cap=len(fam.members)).members) == \
        len(fam.members)
    with pytest.raises(CapExceeded):
        enumerate_vwords(f2, 3, cap=len(fam.members) - 1)


def test_enumeration_refuses_without_exact_ideals(f2):
    with pytest.raises(ModelError, match="exact ideals"):
        enumerate_vwords(WithoutExactIdeals(f2), 3, 1, 2)
