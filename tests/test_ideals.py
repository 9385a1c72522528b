import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (brute_trace_members, exhaustive_vwords, gauss_rank,
                     ideal_eq, left_mul, plain_grading, preimage,
                     reference_hasse, reference_independence, reference_meet,
                     reference_up, transpose_masks, uncached_walk)
from sgclab import ideals as ideals_mod
from sgclab.cli import _ideal_json, _lattice_json
from sgclab.exactla import bareiss_rank
from sgclab.ideals import (CapExceeded, ConstructibleIdeal, WordTrace,
                           empty_ideal, enumerate_ideals, from_trace,
                           full_ideal, independence_rank_oracle,
                           independence_test, intersect, ore_test, walk)
from sgclab.models import EMPTY, build_model


def traces_upto(model, depth, gen_len):
    cand = model.enumerate_p(gen_len)
    for n in range(depth + 1):
        for pairs in itertools.product(
                itertools.product(cand, cand), repeat=n):
            yield pairs


# ---------------------------------------------------------------------------
# the two primitives and trace evaluation

def test_preimage_of_full_is_full(all_models):
    for model in all_models:
        P = full_ideal(model)
        for p in model.enumerate_p(2):
            assert ideal_eq(preimage(p, P), P) is True


def test_left_mul_examples(n1, f2, num23):
    P = full_ideal(n1)
    assert left_mul((2,), P).exact == ("corner", (2,))
    Pf = full_ideal(f2)
    assert left_mul("a", left_mul("b", Pf)).exact == ("word", "ab")
    Pn = full_ideal(num23)
    two_shift = left_mul(2, left_mul(3, Pn))
    assert sorted(two_shift.members_upto(20))[:4] == [5, 7, 8, 9]


def test_preimage_examples(n1, f2):
    P = full_ideal(n1)
    assert preimage((2,), left_mul((3,), P)).exact == ("corner", (1,))
    Pf = full_ideal(f2)
    assert preimage("a", left_mul("b", Pf)).is_empty() is True


def test_from_trace_examples(n1, f2):
    x = from_trace(n1, WordTrace((((2,), (3,)),)))
    assert x.exact == ("corner", (1,))
    q = from_trace(n1, WordTrace((((0,), (2,)),)))
    assert q.exact == ("corner", (2,))
    z = from_trace(f2, WordTrace((("a", "b"),)))
    assert z.is_empty() is True


def test_trace_grading(n2, f2):
    t = WordTrace((((1, 0), (0, 1)), ((0, 0), (2, 0))))
    assert t.grading(n2) == (1, 1)
    s = WordTrace((("a", "b"),))
    assert s.grading(f2) == "Ab"
    assert s.star().grading(f2) == "Ba"


def _exhaustive_traces(model):
    members, _, _, duplicates = exhaustive_vwords(model, 2)
    return [v.trace for v in members] + [t for _, t in duplicates]


def test_grading_fold_matches_the_plain_loop(all_models):
    # every trace the exhaustive walk evaluates, on all three families
    for model in all_models:
        traces = _exhaustive_traces(model)
        assert any(len(t.pairs) == 2 for t in traces)
        for t in traces:
            assert t.grading(model) == plain_grading(model, t), (model.name, t)


def test_grading_inverts_each_pair_once_per_model_instance(all_models,
                                                           monkeypatch):
    # a fresh instance starts with an empty factor cache and inverts each
    # distinct pair's p once, however often its traces are graded; a second
    # instance shares nothing with the first
    for model in all_models:
        traces = _exhaustive_traces(model)
        pairs = {pair for t in traces for pair in t.pairs}
        per_p = Counter(p for p, _ in pairs)
        cls = type(model)
        for _ in range(2):
            fresh = build_model(model.config())
            assert fresh._factor_cache == {}
            inverted = Counter()

            def spy(self, a, real=cls.inv, fresh=fresh, inverted=inverted):
                if self is fresh:
                    inverted[a] += 1
                return real(self, a)
            with monkeypatch.context() as m:
                m.setattr(cls, "inv", spy)
                for _ in range(2):
                    got = [t.grading(fresh) for t in traces]
            assert got == [plain_grading(fresh, t) for t in traces]
            assert all(n <= per_p[p] for p, n in inverted.items()), model.name
            assert sum(inverted.values()) == len(pairs), model.name
            assert set(fresh._factor_cache) == pairs, model.name


def test_from_trace_matches_bruteforce_oracle(all_models):
    for model in all_models:
        radius = 8 if model.family == "free_monoid" else 12
        gen_len = 3 if model.family == "numerical" else 1
        for pairs in traces_upto(model, 2, gen_len):
            got = from_trace(model, WordTrace(pairs))
            want = brute_trace_members(model, pairs, radius)
            assert set(got.members_upto(radius)) == want, pairs


def test_cached_walk_matches_the_uncached_walk(all_models, lattice_of):
    # every step walk serves from the model's step cache equals the
    # kernels' own step: each lattice token through each pair, and through
    # each lattice trace, at depths 1-3
    for model in all_models:
        for depth in (1, 2, 3):
            lat = lattice_of(model, depth=depth)
            cand = model.enumerate_p(lat.params["gen_len"])
            pairs = [((p, q),) for p in cand for q in cand]
            traces = [x.trace.pairs for x in lat.ideals if x.trace is not None]
            for tok in (x.exact for x in lat.ideals):
                for t in pairs + traces:
                    assert walk(model, t, tok) == uncached_walk(model, t, tok), \
                        (model.name, t, tok)


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                min_size=0, max_size=4))
@settings(max_examples=40, deadline=None)
def test_random_deep_traces_match_oracle_num23(pairs):
    from sgclab.models import build_model
    model = build_model({"family": "numerical", "generators": [2, 3]})
    pairs = tuple((p, q) for p, q in pairs if model.in_p(p) and model.in_p(q))
    got = from_trace(model, WordTrace(pairs))
    assert set(got.members_upto(12)) == brute_trace_members(model, pairs, 12)


@given(st.lists(st.tuples(st.sampled_from(["", "a", "b"]),
                          st.sampled_from(["", "a", "b"])),
                min_size=0, max_size=4))
@settings(max_examples=40, deadline=None)
def test_random_deep_traces_match_oracle_f2(pairs):
    from sgclab.models import build_model
    model = build_model({"family": "free_monoid", "rank": 2})
    pairs = tuple(pairs)
    got = from_trace(model, WordTrace(pairs))
    assert set(got.members_upto(5)) == brute_trace_members(model, pairs, 5)


# ---------------------------------------------------------------------------
# intersection

def test_intersect_examples(n1, f2, num23):
    P = full_ideal(n1)
    two, three = left_mul((2,), P), left_mul((3,), P)
    assert intersect(two, three).exact == ("corner", (3,))
    Pf = full_ideal(f2)
    assert intersect(left_mul("a", Pf), left_mul("b", Pf)).is_empty() is True
    Pn = full_ideal(num23)
    both = intersect(left_mul(2, Pn), left_mul(3, Pn))
    assert both.exact == (6, 5)     # least members of the even, odd class
    assert num23.render_token(both.exact) == repr(("num", (), 5))
    assert sorted(both.members_upto(20))[:4] == [5, 6, 7, 8]


def test_intersect_matches_pointwise_oracle(all_models, lattice_of):
    for model in all_models:
        lat = lattice_of(model, depth=2)
        radius = lat.radius
        for x in lat.ideals:
            for y in lat.ideals:
                z = intersect(x, y)
                assert (set(z.members_upto(radius))
                        == set(x.members_upto(radius))
                        & set(y.members_upto(radius)))


def test_intersect_trace_is_constructible(n1, all_models, lattice_of):
    # the combined trace re-evaluates to the same ideal through the primitives
    P = full_ideal(n1)
    x = left_mul((2,), P)
    y = preimage((3,), left_mul((5,), P))
    z = intersect(x, y)
    again = from_trace(n1, z.trace)
    assert ideal_eq(z, again) is True
    assert (set(z.members_upto(12))
            == set(x.members_upto(12)) & set(y.members_upto(12)))
    # intersect takes the token's meet; the doubling trick's trace, kept as
    # provenance, evaluates from P to the same token on every lattice pair
    for model in all_models:
        lat = lattice_of(model, depth=2)
        for x in lat.ideals:
            for y in lat.ideals:
                z = intersect(x, y)
                if x.trace is None or y.trace is None:
                    assert z.trace is None and z.is_empty()
                    continue
                pairs = y.trace.pairs + y.trace.star().pairs + x.trace.pairs
                want = from_trace(model, WordTrace(pairs))
                assert z.exact == want.exact, (model.name, pairs)
                if want.is_empty():
                    assert z.trace is None
                else:
                    assert z.trace.pairs == pairs


def test_semilattice_laws_on_fragment(all_models, lattice_of):
    for model in all_models:
        lat = lattice_of(model, depth=2)
        ideals = lat.ideals
        for x in ideals:
            assert ideal_eq(intersect(x, x), x) is True
        for x in ideals:
            for y in ideals:
                a, b = intersect(x, y), intersect(y, x)
                assert ideal_eq(a, b) is True
        for x, y, z in itertools.islice(itertools.product(ideals, repeat=3), 200):
            lhs = intersect(intersect(x, y), z)
            rhs = intersect(x, intersect(y, z))
            assert ideal_eq(lhs, rhs) is True


def test_left_mul_preimage_identity(all_models):
    # p * (p^-1 x) = pP n x
    for model in all_models:
        P = full_ideal(model)
        gen_len = 3 if model.family == "numerical" else 1
        for p in model.enumerate_p(gen_len):
            for q in model.enumerate_p(gen_len):
                x = left_mul(q, P)
                lhs = left_mul(p, preimage(p, x))
                rhs = intersect(left_mul(p, P), x)
                assert ideal_eq(lhs, rhs) is True


# ---------------------------------------------------------------------------
# equality verdicts

def test_ideal_eq_examples(n1, f2):
    P = full_ideal(n1)
    assert ideal_eq(preimage((2,), left_mul((2,), P)), P) is True
    Pf = full_ideal(f2)
    assert ideal_eq(left_mul("a", Pf), left_mul("b", Pf)) is False


def test_ideal_eq_undecided_contract(num23):
    # ideals that agree within the radius are decided by their tokens
    P = full_ideal(num23)
    x = from_trace(num23, WordTrace(((2, 2),)))
    assert set(x.members_upto(30)) == set(P.members_upto(30))
    assert ideal_eq(x, P) is True


def _word_domains(model, family):
    """The domains of the family's words as their report renders them: the
    domain token with the starred trace."""
    return [ConstructibleIdeal(model, v.trace.star(), v.dom)
            for v in family.members]


def test_members_upto_in_sort_key_order(all_models, lattice_of, family_of):
    # the report's members prefix relies on this order
    for model in all_models:
        ideals = (list(lattice_of(model).ideals)
                  + _word_domains(model, family_of(model)))
        for radius in (0, 3, model.default_radius):
            for ideal in ideals:
                keys = [model.sort_key(a) for a in ideal.members_upto(radius)]
                assert all(a < b for a, b in zip(keys, keys[1:])), \
                    (model.name, ideal.exact, radius)
        r = lattice_of(model).radius
        for ideal in ideals:
            prefix = sorted(set(ideal.members_upto(r)), key=model.sort_key)[:20]
            assert (_ideal_json(ideal, r, {})["members_prefix"]
                    == [model.render(a) for a in prefix])


def test_members_prefix_is_the_head_of_the_full_listing(all_models, lattice_of,
                                                         family_of):
    for model in all_models:
        lat = lattice_of(model)
        ideals = list(lat.ideals) + _word_domains(model, family_of(model))
        for radius in (0, 3, lat.radius):
            for limit in (0, 1, 20, 10 ** 6):
                for ideal in ideals:
                    assert (ideal.members_prefix(radius, limit)
                            == ideal.members_upto(radius)[:limit]), \
                        (model.name, ideal.exact, radius, limit)


def test_render_lists_members_only_as_far_as_needed(monkeypatch):
    # N^2 at radius 30: up to 496 members per ideal, of which 20 are shown
    model = build_model({"family": "free_abelian", "rank": 2})
    lat = enumerate_ideals(model, 2, 1, 30)
    want = [[model.render(a) for a in x.members_upto(30)[:20]]
            for x in lat.ideals]
    asked = []
    real = model.exact_members_upto

    def recorded(tok, radius):
        asked.append(radius)
        return real(tok, radius)

    monkeypatch.setattr(model, "exact_members_upto", recorded)
    nodes = _lattice_json(lat, {})["nodes"]
    assert [node["members_prefix"] for node in nodes] == want
    assert asked and max(asked) < 30


def test_empty_ideal_is_canonical(all_models):
    for model in all_models:
        e1 = empty_ideal(model)
        e2 = intersect(left_mul(model.generators[0], full_ideal(model)), e1)
        assert e2.trace is None and e2.is_empty() is True
        assert e1.exact == e2.exact


# ---------------------------------------------------------------------------
# enumeration

def test_enumerate_n1_chain(n1, lattice_of):
    lat = lattice_of(n1)
    assert [x.exact for x in lat.ideals] == [
        ("corner", (0,)), EMPTY, ("corner", (1,)), ("corner", (2,)),
        ("corner", (3,))]
    assert lat.depths == (0, 0, 1, 2, 3)


def test_enumerate_f2_depth2(f2):
    lat = enumerate_ideals(f2, 2, 1, 6)
    words = {x.exact for x in lat.ideals}
    assert words == {EMPTY, ("word", ""), ("word", "a"), ("word", "b"),
                     ("word", "aa"), ("word", "ab"), ("word", "ba"),
                     ("word", "bb")}


def test_enumerate_matches_exhaustive_trace_oracle(n1, f2, num23):
    # every ideal reachable by a raw trace of the same caps appears
    for model, depth, gen_len, radius in ((n1, 2, 1, 12), (f2, 2, 1, 6),
                                          (num23, 2, 3, 20)):
        lat = enumerate_ideals(model, depth, gen_len, radius)
        keys = {x.exact for x in lat.ideals}
        for pairs in traces_upto(model, depth, gen_len):
            ideal = from_trace(model, WordTrace(pairs))
            if ideal.is_empty() is True:
                ideal = empty_ideal(model)
            assert ideal.exact in keys


def test_closure_meets_each_pair_once(all_models, monkeypatch):
    # the intersection closure meets the tokens of x_i and x_j once for
    # each i <= j of the closed lattice: n(n + 1)/2 exact_intersect calls
    for model in all_models:
        calls = []
        real = model.exact_intersect

        def counted(tok, other, real=real):
            calls.append((tok, other))
            return real(tok, other)

        monkeypatch.setattr(model, "exact_intersect", counted)
        gen_len = 3 if model.family == "numerical" else 1
        lat = enumerate_ideals(model, 2, gen_len, 30)
        index = {x.exact: i for i, x in enumerate(lat.ideals)}
        n = len(lat.ideals)
        assert len(calls) == n * (n + 1) // 2, model.name
        assert sorted((index[a], index[b]) for a, b in calls) == [
            (i, j) for i in range(n) for j in range(i, n)], model.name


def test_closure_wraps_only_new_tokens(monkeypatch):
    # the closure looks each meet's token up before it builds anything: a
    # ConstructibleIdeal is built during the closure (from its first
    # exact_intersect on) only for a node the closure adds, once each
    real_init = ConstructibleIdeal.__init__
    for config, depth, added in (
            ({"family": "free_monoid", "rank": 2}, 6, 0),
            ({"family": "numerical", "generators": [4, 7, 9]}, 2, 119)):
        model = build_model(config)
        built, closing = [], []
        real = model.exact_intersect

        def spy_intersect(tok, other, real=real):
            closing.append(True)
            return real(tok, other)

        def spy_init(self, *args):
            if closing:
                built.append(self)
            real_init(self, *args)

        monkeypatch.setattr(model, "exact_intersect", spy_intersect)
        monkeypatch.setattr(ConstructibleIdeal, "__init__", spy_init)
        lat = enumerate_ideals(model, depth, model.default_gen_len,
                               model.default_radius)
        n = len(lat.ideals)
        assert len(built) == added, config
        assert [id(x) for x in built] == [id(x) for x in lat.ideals[n - added:]]


def test_search_wraps_only_new_tokens(monkeypatch):
    # the breadth-first search walks each extension on its base's token and
    # wraps it in a ConstructibleIdeal only when the token is new: one
    # construction per node (the closure adds none on F2+ at depth 6),
    # none for an extension that lands on a known token
    model = build_model({"family": "free_monoid", "rank": 2})
    built = []
    real_init = ConstructibleIdeal.__init__

    def spy_init(self, *args):
        built.append(self)
        real_init(self, *args)

    monkeypatch.setattr(ConstructibleIdeal, "__init__", spy_init)
    lat = enumerate_ideals(model, 6, 1, 6)
    assert [id(x) for x in built] == [id(x) for x in lat.ideals]
    assert len(built) == 128


def test_enumeration_cap(n1):
    with pytest.raises(CapExceeded):
        enumerate_ideals(n1, 3, 1, 30, cap=3)


def _containment(lat):
    """Containment of every ordered pair, decided on the tokens."""
    return [[lat.model.exact_subset(x.exact, y.exact) for y in lat.ideals]
            for x in lat.ideals]


def test_hasse_is_reduced_and_sound(num23, lattice_of):
    lat = lattice_of(num23, depth=2)
    sub = _containment(lat)
    n = len(lat.ideals)
    strict = [[sub[i][j] and not sub[j][i] for j in range(n)] for i in range(n)]
    covers = {(i, j) for i in range(n) for j in range(n) if strict[i][j]
              and not any(strict[i][k] and strict[k][j] for k in range(n))}
    assert set(lat.hasse) == covers
    assert list(lat.hasse) == sorted(lat.hasse)


def test_up_masks_match_token_containment(all_models, lattice_of):
    num357 = build_model({"family": "numerical", "generators": [3, 5, 7]})
    lattices = [lattice_of(m, depth=d) for m in all_models for d in (2, 3)]
    lattices.append(enumerate_ideals(num357, 2, 7, 50))
    for lat in lattices:
        sub = _containment(lat)
        for i, mask in enumerate(lat.up):
            assert [bool(mask >> j & 1) for j in range(len(lat.ideals))] == sub[i]


_ORDER_CONFIGS = [
    ({"family": "numerical", "generators": [4, 7, 9]}, 3),
    ({"family": "free_monoid", "rank": 2}, 6),
    ({"family": "free_monoid", "rank": 3}, 3),
]


def test_lattice_order_data_matches_the_n2_references(all_models, lattice_of):
    # the closure's one pass sets the meet rows, up and down; covers walk
    # set bits and the independence search reads down: each equals the
    # O(n^2) reference, and the meet rows are tuples
    lattices = [lattice_of(m, depth=d) for m in all_models for d in (1, 2)]
    for config, depth in _ORDER_CONFIGS:
        model = build_model(config)
        lattices.append(enumerate_ideals(model, depth, model.default_gen_len,
                                         model.default_radius))
    for lat in lattices:
        meet = reference_meet(lat)
        up = reference_up(meet)
        assert lat.meet == meet
        assert all(type(row) is tuple for row in lat.meet)
        assert lat.up == up
        assert lat.down == transpose_masks(up)
        assert lat.hasse == reference_hasse(up)
        assert independence_test(lat) == reference_independence(lat)
    assert any(independence_test(lat).status == "witness"
               for lat in lattices)


def test_star_of_a_star_is_the_trace():
    # a star links back to the trace it was built from
    t = WordTrace((("a", "ab"), ("", "b")))
    u = t.star()
    assert u.pairs == (("b", ""), ("ab", "a"))
    assert u.star() is t and t.star() is u


def test_enumeration_reads_containment_off_the_table(monkeypatch):
    calls = []
    for model in (build_model({"family": "free_abelian", "rank": 2}),
                  build_model({"family": "free_monoid", "rank": 2}),
                  build_model({"family": "numerical", "generators": [3, 5]})):
        real = model.exact_subset

        def counted(tok, other, real=real):
            calls.append((tok, other))
            return real(tok, other)

        monkeypatch.setattr(model, "exact_subset", counted)
        enumerate_ideals(model, 2, model.default_gen_len, model.default_radius)
    assert calls == []


def test_lattice_export_shape(n2, lattice_of):
    doc = _lattice_json(lattice_of(n2, depth=2), {})
    assert doc["tier"] == "exact"
    assert doc["nodes"][0]["trace"] == []
    assert {"id", "depth", "radius", "members_prefix", "exact", "empty",
            "trace"} <= set(doc["nodes"][0])
    assert all(len(e) == 2 for e in doc["containment_hasse"])


# ---------------------------------------------------------------------------
# independence and rank

def test_independence_independent_models(n1, n2, f2, lattice_of):
    for model in (n1, n2, f2):
        lat = lattice_of(model)
        assert independence_test(lat).status == "independent"


def test_independence_witness_num23(num23, lattice_of):
    lat = lattice_of(num23)
    res = independence_test(lat)
    assert res.status == "witness"
    x = lat.ideals[res.witness]
    parts = [lat.ideals[j] for j in res.parts]
    r = lat.radius
    union = set().union(*(set(p.members_upto(r)) for p in parts))
    assert union == set(x.members_upto(r))
    for p in parts:
        assert set(p.members_upto(r)) < set(x.members_upto(r))


def test_rank_oracle_examples(n1):
    lat = enumerate_ideals(n1, 2, 1, 5)
    res = independence_rank_oracle(lat)
    assert res.status == "full_rank" and res.rank == 3


def _full_radius_rank(lat):
    """The verdict of the rows listed up to the radius, by Gauss rank."""
    idxs = lat.nonempty_indices()
    n = len(idxs)
    rows = [frozenset(lat.ideals[i].members_upto(lat.radius)) for i in idxs]
    if len(set(rows)) < n:
        return ("inconclusive", 0, n, lat.radius)
    columns = sorted(set().union(*rows), key=lat.model.sort_key)
    rank = gauss_rank([[1 if c in row else 0 for c in columns] for row in rows])
    return ("full_rank" if rank == n else "deficient", rank, n, lat.radius)


def _verdict(res):
    return (res.status, res.rank, res.nonempty, res.radius)


def test_rank_oracle_agrees_with_gauss(all_models, lattice_of):
    for model in all_models:
        for depth in (2, 3):
            lat = lattice_of(model, depth=depth)
            res = independence_rank_oracle(lat)
            assert _verdict(res) == _full_radius_rank(lat), (model.name, depth)


# the benchmark's configs at the default caps, but for F2+ at depth 6,
# whose 127-row matrix test_fock checks against Gauss
BENCH_LATTICES = (
    [({"family": "numerical", "generators": [3, 5, 7]}, 2),
     ({"family": "free_monoid", "rank": 3}, 2)]
    + [(model, depth)
       for model in ({"family": "free_abelian", "rank": 1},
                     {"family": "free_abelian", "rank": 2},
                     {"family": "free_monoid", "rank": 2},
                     {"family": "numerical", "generators": [2, 3]})
       for depth in (2, 3)])


def _pipeline_lattice(model_config, depth):
    model = build_model(model_config)
    return enumerate_ideals(model, depth, model.default_gen_len,
                            model.default_radius)


@pytest.mark.parametrize("model_config,depth", BENCH_LATTICES)
def test_rank_oracle_agrees_with_gauss_on_benchmark_configs(model_config,
                                                            depth):
    lat = _pipeline_lattice(model_config, depth)
    assert _verdict(independence_rank_oracle(lat)) == _full_radius_rank(lat)


def _spy_oracle(monkeypatch, lat, bareiss=bareiss_rank):
    """Run the oracle, recording the radii it lists members up to and the
    matrices it hands to Bareiss."""
    radii, matrices = [], []
    members_upto = ideals_mod.ConstructibleIdeal.members_upto

    def listing(self, n):
        radii.append(n)
        return members_upto(self, n)

    def ranking(matrix):
        matrices.append(matrix)
        return bareiss(matrix)

    monkeypatch.setattr(ideals_mod.ConstructibleIdeal, "members_upto", listing)
    monkeypatch.setattr(ideals_mod, "bareiss_rank", ranking)
    res = independence_rank_oracle(lat)
    monkeypatch.undo()
    return res, radii, matrices


def test_rank_oracle_lists_up_to_the_radius_only_when_it_must(monkeypatch):
    # N^2 at depth 3: 16 distinct least members, rows listed only as far
    # as the longest of them, and one Bareiss call on that matrix
    lat = _pipeline_lattice({"family": "free_abelian", "rank": 2}, 3)
    res, radii, matrices = _spy_oracle(monkeypatch, lat)
    assert _verdict(res) == ("full_rank", 16, 16, 50)
    assert radii and max(radii) < lat.radius
    (matrix,) = matrices
    assert len(matrix) == 16
    # <3,5,7> at depth 2: 17 distinct least members among 41 ideals, so
    # the rows are listed up to the radius at once, and ranked once
    lat = _pipeline_lattice({"family": "numerical", "generators": [3, 5, 7]}, 2)
    res, radii, matrices = _spy_oracle(monkeypatch, lat)
    assert _verdict(res) == ("deficient", 17, 41, 50)
    assert lat.radius in radii
    (matrix,) = matrices
    assert len(matrix) == 41


def test_rank_oracle_falls_back_when_the_short_rows_read_deficient(
        monkeypatch):
    # a Bareiss reading one short on the short matrix sends the oracle to
    # the full listing, which reads as it would alone
    lat = _pipeline_lattice({"family": "free_abelian", "rank": 2}, 2)
    calls = []

    def first_short_by_one(matrix):
        calls.append(matrix)
        return bareiss_rank(matrix) - (len(calls) == 1)

    res, radii, matrices = _spy_oracle(monkeypatch, lat, first_short_by_one)
    assert _verdict(res) == _full_radius_rank(lat) == ("full_rank", 9, 9, 50)
    assert lat.radius in radii
    short, full = matrices
    assert len(short) == len(full) == 9
    assert len(short[0]) < len(full[0]) == len(
        set().union(*(lat.ideals[i].members_upto(lat.radius)
                      for i in lat.nonempty_indices())))


def test_rank_oracle_lists_each_ideal_once_at_the_radius(monkeypatch):
    # F2+ at depth 6: least members reach the radius 6, so the listing that
    # found an ideal's least member there is read again as its short row
    lat = _pipeline_lattice({"family": "free_monoid", "rank": 2}, 6)
    listed = []
    members_upto = ideals_mod.ConstructibleIdeal.members_upto

    def listing(self, n):
        listed.append((self.exact, n))
        return members_upto(self, n)

    monkeypatch.setattr(ideals_mod.ConstructibleIdeal, "members_upto", listing)
    res = independence_rank_oracle(lat)
    monkeypatch.undo()
    assert _verdict(res) == ("full_rank", 127, 127, 6)
    at_radius = Counter(tok for tok, n in listed if n == lat.radius)
    assert at_radius == Counter(lat.ideals[i].exact
                                for i in lat.nonempty_indices())


def test_rank_radius_too_small_is_inconclusive(n1):
    # at radius 1 the ideals 2 + N and 3 + N have no members: equal rows
    lat = enumerate_ideals(n1, 3, 1, 1)
    res = independence_rank_oracle(lat)
    assert res.status == "inconclusive"


def test_rank_oracle_lists_rows_up_to_its_own_radius(n1):
    # rows are members up to the lattice's radius, the oracle's own
    lat = enumerate_ideals(n1, 2, 1, 6)
    res = independence_rank_oracle(lat)
    assert res.radius == lat.radius == 6
    assert res.status == "full_rank" and res.rank == 3


def test_independence_and_rank_agree(all_models, lattice_of):
    for model in all_models:
        lat = lattice_of(model, depth=2)
        comb = independence_test(lat)
        rank = independence_rank_oracle(lat)
        assert comb.status != "inconclusive" and rank.status != "inconclusive"
        assert (comb.status == "independent") == (rank.status == "full_rank")


# ---------------------------------------------------------------------------
# Ore property

def test_ore_examples(n2, f2, num23):
    assert ore_test(n2, 2).status == "ore_up_to"
    res = ore_test(f2, 2)
    assert res.status == "counterexample" and res.pair == ("a", "b")
    assert ore_test(num23, 5).status == "ore_up_to"


def test_ore_monotone_for_abelian(n2, num23):
    for model in (n2, num23):
        lo = ore_test(model, 2)
        hi = ore_test(model, 4)
        assert lo.status == "ore_up_to" and hi.status == "ore_up_to"
