import functools
import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (contains, divide, least_per_class, left_mul,
                     membership_sieve, num_token_text, preimage,
                     scan_intersect, scan_left_mul, scan_preimage,
                     scan_subset, scan_union_covers)
from sgclab import models
from sgclab.cli import RunConfig, run
from sgclab.ideals import WordTrace, enumerate_ideals, full_ideal
from sgclab.invsgp import enumerate_vwords
from sgclab.models import (EMPTY, FreeAbelianModel, FreeMonoidModel, ModelError,
                           NumericalModel, build_model)


def test_build_model_from_config(all_models):
    for model in all_models:
        again = build_model(model.config())
        assert again.name == model.name
        assert again.generators == model.generators


def test_build_model_rejects_bad_configs():
    with pytest.raises(ModelError):
        build_model({"family": "no_such"})
    with pytest.raises(ModelError):
        build_model({"family": "free_abelian"})
    with pytest.raises(ModelError):
        build_model({"family": "numerical", "generators": [2, 4]})  # gcd 2
    with pytest.raises(ModelError):
        build_model({"family": "numerical", "generators": [0, 3]})
    # field types are checked once, here: no bool as an int, no coercion
    for family in ("free_monoid", "free_abelian"):
        for rank in (True, 2.0, "2", None, [2]):
            with pytest.raises(ModelError):
                build_model({"family": family, "rank": rank})
    for gens in ("23", [2.7, 3], ["2", "3"], [True, 3], True, 7, None,
                 {"2": 3}):
        with pytest.raises(ModelError):
            build_model({"family": "numerical", "generators": gens})
    assert build_model({"family": "numerical", "generators": (2, 3)}).name == "<2,3>"


@pytest.mark.parametrize("config,field", [
    ({"family": "numerical", "generators": [3, 5], "rank": 2}, "rank"),
    ({"family": "free_abelian", "rank": 2, "generators": [1]}, "generators"),
    ({"family": "free_monoid", "rank": 2, "generators": [1, 2]},
     "generators"),
    ({"family": "free_monoid", "rank": 2, "letters": "ab"}, "letters"),
])
def test_build_model_refuses_a_field_its_family_never_reads(config, field):
    # an unread field would still reach the report's config and the cache
    # key, giving one monoid two cache entries
    with pytest.raises(ModelError, match=f"has field '{field}'"):
        build_model(config)
    read = {k: v for k, v in config.items() if k != field}
    assert build_model(read).config() == read


def test_mul_examples(n2, f2, num23):
    assert n2.mul((1, 0), (0, 2)) == (1, 2)
    assert f2.mul("a", "A") == ""
    assert num23.mul(2, 3) == 5


def test_inv_examples(n2, f2, num23):
    assert n2.inv((1, 2)) == (-1, -2)
    assert f2.inv("ab") == "BA"
    assert num23.inv(5) == -5


def test_in_p_examples(n2, f2, num23):
    assert n2.in_p((1, 2)) and not n2.in_p((-1, 0))
    assert not f2.in_p("Ab")
    assert not num23.in_p(1) and num23.in_p(4)


def test_enumerate_examples(n1, f2, num23):
    assert n1.enumerate_p(2) == ((0,), (1,), (2,))
    assert f2.enumerate_p(1) == ("", "a", "b")
    assert num23.enumerate_p(5) == (0, 2, 3, 4, 5)


def test_divide_examples(n2, f2, num23):
    assert divide(n2, (1, 0), (3, 2)) == (2, 2)
    assert divide(f2, "a", "ba") is None
    assert divide(num23, 2, 3) is None  # 1 is a gap
    with pytest.raises(ModelError):
        divide(num23, 2, -4)


def test_unit_laws(all_models):
    for model in all_models:
        e = model.unit
        assert model.length(e) == 0
        for x in model.enumerate_p(3):
            assert model.mul(e, x) == x == model.mul(x, e)
            assert model.mul(x, model.inv(x)) == e


def test_associativity_exhaustive_small(all_models):
    for model in all_models:
        elems = model.enumerate_p(3)[:12]
        for a, b, c in itertools.product(elems, repeat=3):
            assert model.mul(model.mul(a, b), c) == model.mul(a, model.mul(b, c))


def test_enumerate_monotone_and_in_p(all_models):
    for model in all_models:
        prev = set()
        for n in range(5):
            cur = set(model.enumerate_p(n))
            assert prev <= cur
            assert all(model.in_p(x) for x in cur)
            assert all(model.length(x) <= n for x in cur)
            prev = cur


def test_length_subadditive(all_models):
    for model in all_models:
        for p in model.enumerate_p(3):
            for q in model.enumerate_p(3):
                assert model.length(model.mul(p, q)) <= model.length(p) + model.length(q)


def test_divide_is_exact_division(all_models):
    for model in all_models:
        elems = model.enumerate_p(4)
        for p in elems:
            for y in elems:
                x = divide(model, p, y)
                if x is not None:
                    assert model.in_p(x)
                    assert model.mul(p, x) == y
                else:
                    assert all(model.mul(p, z) != y for z in elems)


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=2),
       st.lists(st.integers(-9, 9), min_size=2, max_size=2),
       st.lists(st.integers(-9, 9), min_size=2, max_size=2))
@settings(max_examples=60, deadline=None)
def test_abelian_group_laws(a, b, c):
    m = FreeAbelianModel(2)
    a, b, c = tuple(a), tuple(b), tuple(c)
    assert m.mul(m.mul(a, b), c) == m.mul(a, m.mul(b, c))
    assert m.mul(a, m.inv(a)) == m.unit


_words = st.text(alphabet="abAB", max_size=6)


@given(_words, _words, _words)
@settings(max_examples=60, deadline=None)
def test_free_group_laws(a, b, c):
    m = FreeMonoidModel(2)
    a, b, c = m.parse(a), m.parse(b), m.parse(c)
    assert m.mul(m.mul(a, b), c) == m.mul(a, m.mul(b, c))
    assert m.mul(a, m.inv(a)) == m.unit
    assert m.inv(m.inv(a)) == a


def test_free_group_reduction_is_canonical():
    m = FreeMonoidModel(2)
    assert m.parse("abBA") == ""
    assert m.parse("aBb") == "a"
    assert m.mul("ab", "BA") == ""


def test_free_group_mul_cancels_at_the_seam():
    m = FreeMonoidModel(2)
    words = [w for n in range(5)
             for w in map("".join, itertools.product("abAB", repeat=n))
             if m._reduce(w) == w]
    assert len(words) == 161
    for a in words:
        for b in words:
            assert m.mul(a, b) == m._reduce(a + b)


def test_free_group_validate_rejects_unreduced_words(f2):
    for word in ("aA", "bBa", "abBA"):
        with pytest.raises(ModelError):
            f2.validate(word)
    assert f2.validate("aB") == "aB"
    assert f2.parse("abBA") == ""


@given(st.integers(0, 120))
@settings(max_examples=60, deadline=None)
def test_numerical_membership_against_direct_search(n):
    m = NumericalModel([3, 5])
    direct = any(3 * i + 5 * j == n for i in range(n // 3 + 1)
                 for j in range(n // 5 + 1))
    assert m.in_p(n) == direct


def _conductor(m):
    # the largest Apery entry is the Frobenius number plus g0
    return max(m._apery) - m.gens[0] + 1


def test_numerical_conductor():
    assert _conductor(NumericalModel([2, 3])) == 2
    assert _conductor(NumericalModel([3, 5])) == 8   # Frobenius 3*5-3-5 = 7
    assert _conductor(NumericalModel([1])) == 0
    assert _conductor(NumericalModel([6, 10, 15])) == 30  # Frobenius 29


@pytest.mark.parametrize("gens", [
    [1], [2, 3], [3, 5], [3, 5, 7], [4, 7, 9], [5, 7], [6, 10, 15],
    [7, 11, 13, 17], [10, 11, 12, 13, 14, 15, 16, 17, 18, 19], [999, 1000],
], ids=lambda gens: "<" + ",".join(map(str, gens)) + ">")
def test_apery_membership_matches_the_sieve(gens):
    # membership and conductor read off the Apery set agree with a sieve
    # over every entry up to Schur's bound, and past it every integer
    # belongs
    table, conductor = membership_sieve(gens)
    m = NumericalModel(gens)
    assert _conductor(m) == conductor
    assert [m.in_p(n) for n in range(len(table))] == table
    assert not any(m.in_p(n) for n in range(-2 * max(gens), 0))
    assert all(m.in_p(n) for n in range(len(table), len(table) + 3 * max(gens)))


def test_large_numerical_model_builds_fast():
    # <999,1000> has conductor 999 * 1000 - 999 - 1000 + 1 = 997,002; the
    # Apery set finds it over 999 residues, not a 998,002-entry sieve
    started = time.perf_counter()
    m = NumericalModel([999, 1000])
    assert time.perf_counter() - started < 0.1
    assert _conductor(m) == 997002
    assert m.in_p(997002) and not m.in_p(997001) and m.in_p(999 * 1000)


def test_large_conductor_ideals_run_fast():
    # <99,100> has conductor 9,702, yet its tokens are 99 Apery entries
    # and the kernels work class by class, never across the conductor
    doc = {"model": {"family": "numerical", "generators": [99, 100]},
           "caps": {"trace_depth": 1}, "analyses": ["ideals"]}
    started = time.perf_counter()
    report, code = run(RunConfig.from_dict(doc))
    assert time.perf_counter() - started < 1.0
    assert code == 0 and report["results"]["ideals"]["tier"] == "exact"


def test_oversized_numerical_generators_are_refused_before_the_sieve(
        monkeypatch):
    # Schur's bound for <1001,1002> is 1000 * 1001 + 1002 = 1,002,002
    # entries, above the limit: refused before a table is allocated
    assert models.SIEVE_LIMIT == 10 ** 6
    with pytest.raises(ModelError, match="1002002"):
        build_model({"family": "numerical", "generators": [1001, 1002]})
    # a bound at the limit builds, a larger one is refused: <3,5> needs
    # 2 * 4 + 5 = 13 entries, and its Apery set finds the conductor;
    # <3,6,7> needs 2 * 6 + 7 = 19
    monkeypatch.setattr(models, "SIEVE_LIMIT", 13)
    m = NumericalModel([3, 5])
    assert _conductor(m) == 8 and m._apery == (0, 10, 5)
    with pytest.raises(ModelError, match="19 entries"):
        NumericalModel([3, 6, 7])


def test_meets_p(n2, f2, num23):
    assert n2.meets_p((-5, 3))
    assert num23.meets_p(-7)
    assert f2.meets_p("aB") and f2.meets_p("AA") and f2.meets_p("")
    assert not f2.meets_p("Ab") and not f2.meets_p("aBa")


def test_exact_tokens_roundtrip_members(all_models):
    for model in all_models:
        full = model.exact_full()
        radius = 8 if model.family == "free_monoid" else 12
        assert set(model.exact_members_upto(full, radius)) == set(model.enumerate_p(radius))
        assert model.exact_union_covers(EMPTY, [])
        assert not model.exact_union_covers(full, [])


def test_shift_carries_domain_onto_range_in_listing_order(all_models,
                                                         family_of):
    # the Model.sort_key requirement that fock.rep_vword rests on: listed
    # in sort_key order, the images of a word's domain members are the
    # first members of its range
    extra = [build_model(cfg) for cfg in (
        {"family": "free_abelian", "rank": 3},
        {"family": "free_monoid", "rank": 3},
        {"family": "numerical", "generators": [3, 5, 7]})]
    words = [(model, family_of(model).members) for model in all_models]
    words += [(model, enumerate_vwords(model, 2, model.default_gen_len,
                                       model.default_radius).members)
              for model in extra]
    assert {model.family for model, _ in words} == set(models._FAMILIES)
    for model, members in words:
        for v in members:
            for n in (4, 8):
                dom = model.exact_members_upto(v.dom, n)
                images = [model.mul(v.grading, s) for s in dom]
                longest = max(map(model.length, images), default=0)
                ran = model.exact_members_upto(v.ran, longest)
                assert dom == sorted(dom, key=model.sort_key)
                assert ran == sorted(ran, key=model.sort_key)
                assert images == ran[:len(images)]


def test_positions_index_the_members_in_order(all_models, lattice_of):
    # positions is the basis index map of the listing, ascending, at every
    # truncation: a cached tuple keyed on the token and n together
    for model in all_models:
        trunc = 7 if model.family == "free_monoid" else 12
        toks = [x.exact for x in lattice_of(model).ideals]
        for n in (0, 3, trunc):
            index = model.basis(n)[1]
            for tok in toks:
                got = model.positions(tok, n)
                assert type(got) is tuple
                assert got == tuple(index[s] for s in
                                    model.exact_members_upto(tok, n))
                assert all(a < b for a, b in zip(got, got[1:]))


def test_positions_cached_per_model_instance(all_models, lattice_of):
    for model in all_models:
        other = build_model(model.config())
        for x in lattice_of(model).ideals:
            got = model.positions(x.exact, 5)
            assert model.positions(x.exact, 5) is got
            assert other.positions(x.exact, 5) == got
            if got:   # the empty tuple is one object in CPython
                assert other.positions(x.exact, 5) is not got


def test_free_monoid_members_reuse_the_cached_enumeration(monkeypatch):
    model = build_model({"family": "free_monoid", "rank": 2})
    rooms = []
    real = model._generate_p

    def counted(max_len):
        rooms.append(max_len)
        return real(max_len)

    monkeypatch.setattr(model, "_generate_p", counted)
    P = full_ideal(model)
    ideals = [P, left_mul("a", P), left_mul("ab", P), left_mul("bab", P)]
    for _ in range(3):
        for ideal in ideals:
            w = ideal.exact[1]
            for n in range(7):
                assert ideal.members_upto(n) == [
                    x for x in model.enumerate_p(n) if x.startswith(w)]
    assert rooms and len(rooms) == len(set(rooms))


def test_free_abelian_members_reuse_the_cached_enumeration(monkeypatch):
    model = build_model({"family": "free_abelian", "rank": 2})
    rooms = []
    real = model._generate_p

    def counted(max_len):
        rooms.append(max_len)
        return real(max_len)

    monkeypatch.setattr(model, "_generate_p", counted)
    P = full_ideal(model)
    ideals = [P, left_mul((1, 0), P), left_mul((0, 2), P), left_mul((3, 1), P)]
    got = [[ideal.members_upto(n) for n in range(9)]
           for _ in range(3) for ideal in ideals]
    # members are read off enumerate_p, each room generated once
    assert rooms and len(rooms) == len(set(rooms))
    for members, ideal in zip(got, ideals * 3):
        c = ideal.exact[1]
        assert members == [[x for x in model.enumerate_p(n)
                            if all(a >= b for a, b in zip(x, c))]
                           for n in range(9)]


@pytest.mark.parametrize("raw", [[0.5, 1], [True, 0], ["3", 1], [1.0, 0]],
                         ids=["float", "bool", "str", "integral-float"])
def test_free_abelian_parse_refuses_non_int_entries(n2, raw):
    # vector entries are ints as given: no coercion, no bool
    with pytest.raises(ModelError):
        n2.parse(raw)


def test_validate_refuses_bools_as_parse_does(n2, num23):
    # True == 1 and hashes alike, so a bool let through passes for an int
    # everywhere after the boundary and renders as true
    for model, raw in ((n2, (True, 0)), (n2, (0, False)), (num23, True)):
        with pytest.raises(ModelError):
            model.validate(raw)
    with pytest.raises(ModelError):
        WordTrace.make(n2, [((0, 0), (True, 0))])
    with pytest.raises(ModelError):
        WordTrace.make(num23, [(0, False)])
    assert n2.validate((1, 0)) == (1, 0) and num23.validate(1) == 1


def test_parse_render_roundtrip(all_models):
    for model in all_models:
        for x in model.enumerate_p(3):
            assert model.parse(model.render(x)) == x


def test_raw_elements_are_validated_at_the_boundary(n2, f2, num23):
    # arithmetic trusts normal forms (in_p("x") is True once nothing
    # re-validates), so the entry points must reject foreign values
    with pytest.raises(ModelError):
        WordTrace.make(f2, [("x", "a")])
    with pytest.raises(ModelError):
        WordTrace.make(n2, [((1,), (0, 0))])      # wrong-length vector
    with pytest.raises(ModelError):
        WordTrace.make(num23, [("2", 3)])         # wrong type
    with pytest.raises(ModelError):
        left_mul("x", full_ideal(f2))
    with pytest.raises(ModelError):
        preimage((1, 0, 0), full_ideal(n2))
    with pytest.raises(ModelError):
        f2.parse("abc")
    # valid raw input still goes through
    assert WordTrace.make(f2, [("a", "ab")]).pairs == (("a", "ab"),)


# ---------------------------------------------------------------------------
# right-LCM token kernels against member scans over a box

@pytest.mark.parametrize("config", [
    {"family": "free_abelian", "rank": 2}, {"family": "free_abelian", "rank": 3},
    {"family": "free_monoid", "rank": 2}, {"family": "free_monoid", "rank": 3},
], ids=["N^2", "N^3", "F2+", "F3+"])
def test_free_abelian_kernels_match_member_scans(config):
    # the box reaches one past every token's generator, a corner or a
    # word, so it holds each generator and its members there decide the
    # token
    model = build_model(config)
    lat = enumerate_ideals(model, 2, 1, model.default_radius)
    toks = sorted({ideal.exact for ideal in lat.ideals}
                  | {EMPTY, model.exact_full()})
    gens = [tok[1] for tok in toks if tok != EMPTY]
    if model.family == "free_abelian":
        top = 1 + max(c for g in gens for c in g)
        cone = list(itertools.product(range(top + 1), repeat=model.rank))
    else:
        cone = model.enumerate_p(1 + max(map(len, gens)))

    @functools.cache
    def members(tok):
        return frozenset(x for x in cone if contains(model, tok, x))

    assert len(toks) > 5
    for tok in toks:
        held = members(tok)
        for p in model.enumerate_p(3):
            want = {x for x in cone if contains(model, tok, model.mul(p, x))}
            assert members(model.exact_preimage(p, tok)) == want, (p, tok)
        for other in toks:
            assert model.exact_subset(tok, other) == (held <= members(other))
            assert members(model.exact_intersect(tok, other)) == \
                held & members(other), (tok, other)
        for k in range(3):
            for others in itertools.combinations(toks, k):
                assert model.exact_union_covers(tok, others) == (
                    held <= frozenset().union(*map(members, others))), (
                    tok, others)


# ---------------------------------------------------------------------------
# numerical token kernels against the range-scan oracles

@functools.lru_cache(maxsize=None)
def _lattice_tokens(gens):
    model = NumericalModel(gens)
    lat = enumerate_ideals(model, 2, model.default_gen_len, model.default_radius)
    toks = {ideal.exact for ideal in lat.ideals}
    return model, sorted(toks | {EMPTY, model.exact_full()}, key=repr)


@pytest.mark.parametrize("gens", [[1], [2, 3], [3, 5], [3, 5, 7]],
                         ids=["<1>", "<2,3>", "<3,5>", "<3,5,7>"])
def test_numerical_kernels_match_scans_on_depth2_lattice(gens):
    model, toks = _lattice_tokens(tuple(gens))
    for tok in toks:
        for p in model.enumerate_p(max(gens) + 1):
            assert model.exact_left_mul(p, tok) == scan_left_mul(
                model, p, tok), (p, tok)
            assert model.exact_preimage(p, tok) == scan_preimage(
                model, p, tok), (p, tok)
        for other in toks:
            assert model.exact_subset(tok, other) == scan_subset(
                model, tok, other), (tok, other)
            assert model.exact_intersect(tok, other) == scan_intersect(
                model, tok, other), (tok, other)
    # every subset of up to 3 others on <2,3>; up to 2 on the larger
    # lattices, whose 3-subsets would take the scan about 20 s
    for k in range(4 if len(toks) < 20 else 3):
        for others in itertools.combinations(toks, k):
            for tok in toks:
                assert model.exact_union_covers(tok, others) == \
                    scan_union_covers(model, tok, others), (tok, others)


_NUM357 = NumericalModel([3, 5, 7])


def _ideal_of(points):
    # the Apery tuple of the right ideal X + S, by a membership scan up to
    # a point past which every class of X + S has started
    m = _NUM357
    return least_per_class(m, (
        x for x in range(max(points) + max(m._apery) + m.gens[0])
        if any(x >= y and m.in_p(x - y) for y in points)))


_canonical = st.one_of(
    st.just(EMPTY),
    st.builds(_ideal_of, st.sets(st.integers(0, 24), min_size=1,
                                 max_size=12)))


@given(_canonical, _canonical, st.lists(_canonical, max_size=3),
       st.sampled_from(_NUM357.enumerate_p(12)))
@settings(max_examples=200, deadline=None)
def test_numerical_kernels_match_scans_on_canonical_tokens(tok, other, others,
                                                           p):
    m = _NUM357
    assert m.exact_left_mul(p, tok) == scan_left_mul(m, p, tok)
    assert m.exact_preimage(p, tok) == scan_preimage(m, p, tok)
    assert m.exact_subset(tok, other) == scan_subset(m, tok, other)
    assert m.exact_intersect(tok, other) == scan_intersect(m, tok, other)
    assert m.exact_union_covers(tok, others) == scan_union_covers(m, tok, others)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_numerical_cover_matches_scan_on_lattice_triples(data):
    # one token and three others from each lattice per example
    for gens in ((3, 5, 7), (4, 5), (4, 7, 9)):
        model, toks = _lattice_tokens(gens)
        tok = data.draw(st.sampled_from(toks))
        others = data.draw(st.lists(st.sampled_from(toks), min_size=3,
                                    max_size=3))
        assert model.exact_union_covers(tok, others) == scan_union_covers(
            model, tok, others), (gens, tok, others)


@pytest.mark.parametrize("gens,depth", [
    ((1,), 2), ((2, 3), 2), ((3, 5), 2), ((3, 5, 7), 2), ((4, 5), 2),
    ((4, 7, 9), 2), ((99, 100), 1),
], ids=["<1>", "<2,3>", "<3,5>", "<3,5,7>", "<4,5>", "<4,7,9>",
        "<99,100> depth 1"])
def test_numerical_token_text_matches_the_member_scan(gens, depth):
    # a token is EMPTY or g0 ints, and its report text is the sporadic
    # members and tail start a scan of its members finds
    model = NumericalModel(gens)
    lat = enumerate_ideals(model, depth, model.default_gen_len,
                           model.default_radius)
    assert len(lat.ideals) > 1
    for ideal in lat.ideals:
        tok = ideal.exact
        assert tok == EMPTY or (len(tok) == gens[0]
                                and all(map(models._is_int, tok))), tok
        assert model.render_token(tok) == num_token_text(model, tok), tok
