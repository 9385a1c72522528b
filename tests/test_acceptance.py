"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here: algebraic identities are exact (zero
tolerance), norm enclosures must have width at most 1e-9, and the two
timed criteria carry their stated wall-clock budgets.
"""

import itertools
import random
import time
from fractions import Fraction

from oracles import (diagonal_expectation, exhaustive_vwords, graded_sum,
                     left_mul, principal_character)
from sgclab.cli import ANALYSES, RunConfig, run, stable_body
from sgclab.fock import (check_projection_identity, cond_expectation,
                         equal_on_band, mul_op, projection_op, rep_vword,
                         sc_limit_probe, word_reach)
from sgclab.ideals import (enumerate_ideals, from_trace, full_ideal,
                           independence_rank_oracle, independence_test,
                           intersect, ore_test)
from sgclab.invsgp import (compose, enumerate_vwords, idempotent_vword,
                           make_vword, star, vword_eq)
from sgclab.spectrum import (Fragment, ThetaContext, boundary,
                             enumerate_characters, theta_apply,
                             topological_freeness_probe)

WIDTH_TOL = Fraction(1, 10 ** 9)

# per-model caps used throughout: (gen_len, lattice radius, truncation)
CAPS = {
    "N^1": (1, 30, 30),
    "N^2": (1, 30, 12),
    "F2+": (1, 6, 7),
    "<2,3>": (3, 30, 30),
}


def _caps(model):
    return CAPS[model.name]


def _lattice(model, depth):
    gl, rad, _ = _caps(model)
    return enumerate_ideals(model, depth, gl, rad)


def _family(model, depth=2):
    gl, rad, _ = _caps(model)
    return enumerate_vwords(model, depth, gl, rad)


def _context(model, depth=2):
    return ThetaContext(Fragment.from_lattice(_lattice(model, depth)),
                        _family(model, depth))


def _ok(num, name):
    print(f"ACCEPTANCE {num} ({name}): PASS")


def test_criterion_1_projection_calculus(all_models):
    started = time.monotonic()
    for model in all_models:
        _, _, trunc = _caps(model)
        lat = _lattice(model, 3)
        assert lat.radius <= 30
        pairs, ok = check_projection_identity(lat, trunc)
        assert ok, (model.name,)
        assert pairs == len(lat.nonempty_indices()) ** 2
        # the pairs with the empty ideal, mask against mask
        empty = lat.ideals[lat.empty_index]
        for x in lat.ideals:
            for left, right in ((x, empty), (empty, x)):
                prod = mul_op(projection_op(left, trunc),
                              projection_op(right, trunc))
                want = projection_op(intersect(left, right), trunc)
                assert equal_on_band(prod, want), (model.name,)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"projection calculus took {elapsed:.1f}s"
    _ok(1, "projection calculus, zero tolerance, "
           f"{elapsed:.1f}s < 60s")


def test_criterion_2_intersection_formula_oracle(all_models):
    for model in all_models:
        for depth in (2, 3):
            lat = _lattice(model, depth)
            r = lat.radius
            for x in lat.ideals:
                for y in lat.ideals:
                    z = intersect(x, y)
                    assert (set(z.members_upto(r)) == set(x.members_upto(r))
                            & set(y.members_upto(r))), (model.name,)
    _ok(2, "intersection formula equals pointwise intersection")


def test_criterion_3_independence(n1, n2, f2, num23):
    for model in (n1, n2, f2):
        assert independence_test(_lattice(model, 3)).status == "independent"
    witness_lat = _lattice(num23, 3)
    res = independence_test(witness_lat)
    assert res.status == "witness"
    x = witness_lat.ideals[res.witness]
    parts = [witness_lat.ideals[j] for j in res.parts]
    r = witness_lat.radius
    assert (set().union(*(set(p.members_upto(r)) for p in parts))
            == set(x.members_upto(r)))
    checked = 0
    for model in (n1, n2, f2, num23):
        for depth in (1, 2, 3):
            lat = _lattice(model, depth)
            if len(lat.ideals) > 12:
                continue
            comb = independence_test(lat)
            rank = independence_rank_oracle(lat)
            assert comb.status != "inconclusive"
            assert rank.status != "inconclusive"
            assert (comb.status == "independent") == (rank.status == "full_rank")
            checked += 1
    assert checked >= 6
    _ok(3, f"independence verdicts + rank agreement on {checked} fragments")


def test_criterion_4_inverse_semigroup_laws(all_models):
    for model in all_models:
        fam = _family(model, 2)
        unit = model.unit
        for v in fam.members:
            assert vword_eq(compose(compose(v, star(v)), v), v) is True
        for v, w in itertools.product(fam.members, repeat=2):
            vw = compose(v, w)
            if not vw.is_zero:
                assert vw.grading == model.mul(v.grading, w.grading)
        for v in fam.members:
            if v.grading == unit:
                dom = from_trace(model, v.trace.star())
                assert vword_eq(v, idempotent_vword(dom)) is True
        for idx, dup in exhaustive_vwords(model, 2, fam.params["gen_len"])[3]:
            v = fam.members[idx]
            w = make_vword(model, dup)
            prods = [compose(v, star(v)), compose(w, star(w)),
                     compose(w, star(v)), compose(v, star(w))]
            for prod in prods:
                assert prod.is_idempotent()
                assert vword_eq(prod, prods[0]) is True
    _ok(4, "inverse-semigroup laws exact at depth 2")


def test_criterion_5_ore_characterization(n1, n2, f2, num23):
    for model in (n1, n2, num23):
        for level in (2, 3, 4):
            assert ore_test(model, level).status == "ore_up_to"
        for depth in (1, 2):
            res = boundary(_context(model, depth))
            assert len(res.chars) == 1, (model.name, depth)
            assert res.routes_agree
    cex = ore_test(f2, 2)
    assert cex.status == "counterexample" and cex.pair == ("a", "b")
    for depth in (1, 2):
        res = boundary(_context(f2, depth))
        assert len(res.chars) >= 2
    _ok(5, "Ore models: singleton boundary; free monoid: counterexample (a,b)")


def test_criterion_6_partial_action_axioms(all_models):
    for model in all_models:
        ctx = _context(model, 2)
        chars = enumerate_characters(ctx.fragment)
        unit = model.unit
        for chi in chars:
            res = theta_apply(ctx, unit, chi)
            assert res.status == "image" and res.image == chi
        gradings = ctx.gradings()
        composed = 0
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
                        composed += 1
        assert composed > 0
        transported = 0
        for p in model.enumerate_p(2):
            chi = principal_character(ctx.fragment, p)
            for g in gradings:
                res = theta_apply(ctx, g, chi)
                if res.status == "image":
                    gp = model.mul(g, p)
                    assert model.in_p(gp)
                    assert res.image == principal_character(ctx.fragment, gp)
                    transported += 1
        assert transported > 0
    _ok(6, "identity, composition, and principal transport laws exact")


def test_criterion_7_topological_freeness(n1, f2):
    ctx = _context(f2, 2)
    bd = boundary(ctx)
    tested = [g for g in ctx.gradings()
              if sum(ch.isupper() for ch in g) <= 1]
    assert len(tested) >= 10
    verdicts = topological_freeness_probe(ctx, bd.chars, tested)
    for g in tested:
        assert verdicts[g].status == "free", (g, verdicts[g].note)
    ctx1 = _context(n1, 2)
    bd1 = boundary(ctx1)
    chain_tested = [(1,), (2,), (-1,), (-2,)]
    verdicts1 = topological_freeness_probe(ctx1, bd1.chars, chain_tested)
    for g in chain_tested:
        assert verdicts1[g].status == "not-free", g
    _ok(7, f"free monoid free on {len(tested)} gradings; chain not-free on"
           f" {len(chain_tested)}")


def test_criterion_8_conditional_expectation(all_models):
    coeffs = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2),
              Fraction(2), Fraction(1, 3)]
    for model in all_models:
        _, _, trunc = _caps(model)
        fam = _family(model, 2)
        rng = random.Random(f"expectation:{model.name}")
        idxs = list(range(len(fam.members)))
        for _ in range(200):
            terms = [(rng.choice(coeffs), fam.members[rng.choice(idxs)])
                     for _ in range(rng.randint(1, 3))]
            reach = max(word_reach(v) for _, v in terms)
            assert trunc - reach >= 0, "sample not band safe"
            ops = [(c, v, rep_vword(v, trunc)) for c, v in terms]
            assert cond_expectation([(v, op) for _, v, op in ops])
            ce = diagonal_expectation(ops)
            full, band = graded_sum(terms, trunc)
            diagonal = {j: col[j] for j, col in full.items() if j in col}
            basis = model.enumerate_p(trunc)
            assert all(ce.get(j) == diagonal.get(j)
                       for j in ce.keys() | diagonal.keys()
                       if model.length(basis[j]) <= band)
    _ok(8, "grading filter equals diagonal compression on 200 samples/model")


def test_criterion_9_strong_covariance_numerics(n1, f2):
    started = time.monotonic()
    Pf = full_ideal(f2)
    aP, bP = left_mul("a", Pf), left_mul("b", Pf)
    covariance = [(Fraction(1), idempotent_vword(Pf)),
                  (Fraction(-1), idempotent_vword(aP)),
                  (Fraction(-1), idempotent_vword(bP))]
    for f_set in (["a", "b"], ["a", "b", "aa"], ["a", "b", "ab", "ba"]):
        ((lo, hi),) = sc_limit_probe(covariance, [f_set], f2, 7).enclosures
        assert hi - lo <= WIDTH_TOL
        assert lo <= 0 <= hi

    Pn = full_ideal(n1)
    defect = [(Fraction(1), idempotent_vword(Pn)),
              (Fraction(-1), idempotent_vword(left_mul((1,), Pn)))]
    previous = None
    for k in range(7):
        ((lo, hi),) = sc_limit_probe(defect, [[(j,) for j in range(k + 1)]],
                                     n1, 30).enclosures
        assert hi - lo <= WIDTH_TOL
        if previous is not None:
            assert hi <= previous
        previous = hi
    assert previous <= WIDTH_TOL

    mask = [(Fraction(1), idempotent_vword(aP))]
    for f_set in (["a"], ["a", "b"], ["a", "b", "aa", "ab", "ba", "bb"]):
        ((lo, _),) = sc_limit_probe(mask, [f_set], f2, 7).enclosures
        assert lo >= 1
    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"strong covariance numerics took {elapsed:.1f}s"
    _ok(9, f"covariance norms enclosed within 1e-9, {elapsed:.1f}s < 300s")


def test_criterion_10_reproducibility():
    doc = {
        "model": {"family": "numerical", "generators": [2, 3]},
        "analyses": list(ANALYSES),
        "caps": {"trace_depth": 2, "radius": 25, "trunc": 25,
                 "ore_len": 3, "samples": 40, "f_chain": 3},
        "seed": 2026,
    }
    cfg = RunConfig.from_dict(doc)
    first, code1 = run(cfg)
    second, code2 = run(cfg)
    assert code1 == code2
    assert stable_body(first) == stable_body(second)
    assert set(first["timings"]) == set(first["results"])
    _ok(10, "same config and seed give byte-identical reports minus timings")
