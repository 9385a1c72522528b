import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (basis_scan_columns, contains, diagonal_expectation,
                     diagonal_part, divide, eager_sc_probe,
                     entrywise_equal_on_band, frame_flag,
                     frame_pointwise_applies, gauss_rank, graded_sum, left_mul,
                     product_projection_identity)
from sgclab import ideals
from sgclab.cli import RunConfig, run
from sgclab.exactla import (bareiss_rank, operator_norm_enclosure,
                            sqrt_enclosure, sym_top_eig_enclosure)
from sgclab.fock import (BandExhausted, TruncOp, build_frame,
                         check_projection_identity, compressed_matrix,
                         cond_expectation, default_f_chain, equal_on_band,
                         generator_covariance_terms, mul_op, projection_op,
                         rep_vword, sc_norm, sc_limit_probe, word_reach)
from sgclab.ideals import (WordTrace, enumerate_ideals, from_trace,
                           full_ideal, intersect)
from sgclab.invsgp import (compose, enumerate_vwords, idempotent_vword,
                           make_vword, star, zero_vword)
from sgclab.models import ModelError, build_model
from conftest import params_for

TOL = Fraction(1, 10 ** 9)


# ---------------------------------------------------------------------------
# exact linear algebra

@st.composite
def int_matrices(draw):
    """Signed matrices up to 8 x 8, tall, square and wide."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    return draw(st.lists(st.lists(st.integers(-3, 3), min_size=cols,
                                  max_size=cols),
                         min_size=rows, max_size=rows))


@given(st.one_of(
    st.lists(st.lists(st.integers(0, 1), min_size=4, max_size=4),
             min_size=1, max_size=6),
    int_matrices()))
@settings(max_examples=300, deadline=None)
def test_bareiss_matches_gauss(rows):
    assert bareiss_rank(rows) == gauss_rank(rows)


@pytest.mark.parametrize("rows,rank", [
    # a zero row
    ([[1, 2, 0], [0, 0, 0], [0, 1, 3]], 2),
    # a duplicate row
    ([[1, -2, 3], [0, 1, 1], [1, -2, 3]], 2),
    # a row that is the sum of two others
    ([[1, 0, 2, -1], [0, 3, 1, 1], [1, 3, 3, 0], [0, 0, 0, 1]], 3),
    # the pivot 2 differs from the previous pivot 1, so the rows with a
    # zero pivot-column entry must still be scaled: left as they were,
    # the next step would divide (0, 0, 1) by 2 and drop the last row
    ([[2, 0, 0], [0, 1, 0], [0, 1, 1]], 3),
    ([[0, 0, 1], [3, 1, 0], [0, 1, 2], [0, 2, 4]], 3),
])
def test_bareiss_deficient_and_pivot_change(rows, rank):
    assert bareiss_rank(rows) == gauss_rank(rows) == rank


def test_bareiss_on_the_f2_depth6_membership_matrix(monkeypatch):
    # the 127-row matrix the rank oracle builds on the deepest word
    # enumeration, against plain Fraction elimination
    seen = []

    def capture(matrix):
        seen.append(matrix)
        return bareiss_rank(matrix)

    monkeypatch.setattr(ideals, "bareiss_rank", capture)
    report, _ = run(RunConfig.from_dict(
        {"model": {"family": "free_monoid", "rank": 2},
         "caps": {"trace_depth": 6}, "analyses": ["independence"]}))
    (matrix,) = seen
    assert len(matrix) == 127
    assert bareiss_rank(matrix) == gauss_rank(matrix) == 127
    assert report["results"]["independence"]["rank_oracle"]["status"] == \
        "full_rank"


def test_sym_top_eig_known():
    lo, hi = sym_top_eig_enclosure([[Fraction(2), Fraction(0)],
                                    [Fraction(0), Fraction(5)]], TOL)
    assert lo <= 5 <= hi and hi - lo <= TOL
    # [[2,1],[1,2]] has top eigenvalue 3
    lo, hi = sym_top_eig_enclosure([[Fraction(2), Fraction(1)],
                                    [Fraction(1), Fraction(2)]], TOL)
    assert lo <= 3 <= hi and hi - lo <= TOL


def test_sqrt_enclosure():
    lo, hi = sqrt_enclosure(Fraction(2), TOL)
    assert hi - lo <= TOL and lo * lo <= 2 <= hi * hi


def test_operator_norm_nilpotent_and_shear():
    lo, hi = operator_norm_enclosure([[0, 1], [0, 0]], TOL)
    assert lo <= 1 <= hi and hi - lo <= TOL
    # largest singular value of [[1,1],[0,1]] is the golden ratio
    lo, hi = operator_norm_enclosure([[1, 1], [0, 1]], TOL)
    golden = (1 + 5 ** 0.5) / 2
    assert abs(float((lo + hi) / 2) - golden) < 1e-8
    assert hi - lo <= TOL


def test_operator_norm_against_float_power_iteration():
    matrix = [[Fraction(1, 3), Fraction(-2, 5), Fraction(1)],
              [Fraction(0), Fraction(3, 7), Fraction(-1, 2)],
              [Fraction(2), Fraction(1, 9), Fraction(0)]]
    lo, hi = operator_norm_enclosure(matrix, TOL)
    a = [[float(v) for v in row] for row in matrix]
    gram = [[sum(a[k][i] * a[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]
    vec = [1.0, 1.0, 1.0]
    for _ in range(300):
        nxt = [sum(gram[i][j] * vec[j] for j in range(3)) for i in range(3)]
        norm = max(abs(v) for v in nxt)
        vec = [v / norm for v in nxt]
    est = norm ** 0.5
    assert abs(est - float((lo + hi) / 2)) < 1e-6


# ---------------------------------------------------------------------------
# word matrices

def test_rep_identity(all_models):
    # the empty-trace word is the identity: it fixes every basis point and
    # is a unit for the product of word matrices
    for model in all_models:
        n = 5
        unit = rep_vword(make_vword(model, WordTrace(())), n)
        assert unit.cols == {j: j for j in range(len(model.basis(n)[0]))}
        assert projection_op(full_ideal(model), n).cols == unit.cols
        g = model.generators[0]
        shift = rep_vword(make_vword(model, WordTrace(((model.unit, g),))), n)
        assert mul_op(unit, shift).cols == shift.cols
        assert mul_op(shift, unit).cols == shift.cols


def test_member_driven_columns_match_basis_scan(all_models, family_of):
    leaves_basis = 0
    for model in all_models:
        truncs = (4, 6) if model.family == "free_monoid" else (6, 10)
        for n in truncs:
            for v in family_of(model).members:
                for ideal in (from_trace(model, v.trace.star()),
                              from_trace(model, v.trace)):
                    want = basis_scan_columns(model, model.unit, ideal.exact, n)
                    assert projection_op(ideal, n).cols == _nonzero(want)
                if word_reach(v) > n:
                    with pytest.raises(BandExhausted):
                        rep_vword(v, n)
                    continue
                want = basis_scan_columns(model, v.grading, v.dom, n)
                assert rep_vword(v, n).cols == _nonzero(want)
                # domain members whose image lies beyond length n
                leaves_basis += sum(
                    1 for j, s in enumerate(model.enumerate_p(n))
                    if contains(model, v.dom, s) and not want[j])
    assert leaves_basis > 0


def _nonzero(cols):
    return {j: i for j, c in enumerate(cols) for i in c}


def test_rep_vword_tests_no_membership(all_models, family_of):
    # the columns are the domain's members, so no point is tested again:
    # no family has a membership kernel to call (test_exact_hook.py walks
    # the package's source for one)
    assert not any(hasattr(type(model), "exact_contains")
                   for model in all_models)
    families = [(model, family_of(model)) for model in all_models]
    built = 0
    for model, fam in families:
        n = 6 if model.family == "free_monoid" else 10
        for v in fam.members:
            if word_reach(v) <= n:
                rep_vword(v, n)
                built += 1
    assert built > 0


def test_rep_vword_multiplies_no_element(all_models, family_of, monkeypatch):
    # the rows are the range's basis positions, zipped beside the domain's,
    # so no image is computed point by point: on a fresh model instance the
    # first matrix of a word makes only the products its two listings make
    # (a translated cone adds its corner), none on F2+ or <2,3>, and the
    # positions are cached, so a second matrix of the word makes none
    families = [(model, family_of(model)) for model in all_models]
    calls = []
    for cls in {type(model) for model in all_models}:
        def counted(self, a, b, real=cls.mul):
            calls.append((a, b))
            return real(self, a, b)
        monkeypatch.setattr(cls, "mul", counted)
    built = 0
    for model, fam in families:
        n = 6 if model.family == "free_monoid" else 10
        for w in fam.members:
            if word_reach(w) <= n:
                fresh = build_model(model.config())
                v = make_vword(fresh, w.trace)
                del calls[:]
                for tok in dict.fromkeys((v.dom, v.ran)):
                    fresh.exact_members_upto(tok, n)
                listed = calls[:]
                del calls[:]
                rep_vword(v, n)
                assert calls == listed
                if model.family != "free_abelian":
                    assert calls == []
                del calls[:]
                rep_vword(v, n)
                assert calls == []
                built += 1
    assert built > 0


def test_basis_index_cached_per_model_instance(f2):
    n = 5
    basis, index = f2.basis(n)
    projection_op(full_ideal(f2), n)
    rep_vword(make_vword(f2, WordTrace((("", "a"),))), n)
    assert f2.basis(n)[0] is basis and f2.basis(n)[1] is index
    other = build_model(f2.config())
    projection_op(full_ideal(other), n)
    assert other.basis(n) == (basis, index)
    assert other.basis(n)[0] is not basis and other.basis(n)[1] is not index


def test_rep_shift_matrix(n1):
    v = make_vword(n1, WordTrace((((0,), (1,)),)))
    op = rep_vword(v, 4)
    assert op.cols == {0: 1, 1: 2, 2: 3, 3: 4}
    assert op.triplets() == [(1, 0, 1), (2, 1, 1), (3, 2, 1), (4, 3, 1)]
    assert op.band == 3 and op.reach == 1


def test_rep_vstarv_is_domain_mask(n1):
    v = make_vword(n1, WordTrace((((2,), (3,)),)))
    vv = compose(star(v), v)
    op = rep_vword(vv, 8)
    want = projection_op(from_trace(n1, vv.trace.star()), 8)
    assert equal_on_band(op, want)
    ideal = from_trace(n1, WordTrace((((3,), (2,)),)))
    assert equal_on_band(op, projection_op(ideal, 8))


def test_rep_multiplicative_on_band(all_models, family_of):
    for model in all_models:
        n = 7 if model.family == "free_monoid" else 10
        fam = family_of(model)
        words = fam.members[:10]
        for v, w in itertools.product(words, repeat=2):
            lhs = mul_op(rep_vword(v, n), rep_vword(w, n))
            rhs = rep_vword(compose(v, w), n)
            if lhs.band >= 0:
                assert equal_on_band(lhs, rhs)


def test_rep_star_is_transpose(all_models, family_of):
    for model in all_models:
        n = 6 if model.family == "free_monoid" else 10
        for v in family_of(model).members[:12]:
            a = rep_vword(v, n)
            b = rep_vword(star(v), n)
            band = min(n - 2 * word_reach(v), a.band, b.band)
            if band < 0:
                continue
            # a transposed, on the columns inside the band, is b
            basis = model.basis(n)[0]
            inside = [(j, i, x) for i, j, x in a.triplets()
                      if model.length(basis[i]) <= band]
            assert sorted(inside) == [(i, j, x) for i, j, x in b.triplets()
                                      if model.length(basis[j]) <= band]


def test_idempotent_rep_is_diagonal_mask(all_models, family_of):
    for model in all_models:
        n = 6 if model.family == "free_monoid" else 10
        for v in family_of(model).members:
            if v.grading != model.unit:
                continue
            op = rep_vword(v, n)
            assert all(i == j for j, i in op.cols.items())
            dom = from_trace(model, v.trace.star())
            assert equal_on_band(op, projection_op(dom, n))


def test_band_algebra():
    # band shrinks by the inner reach
    from sgclab.models import build_model
    m = build_model({"family": "free_abelian", "rank": 1})
    v = make_vword(m, WordTrace((((0,), (2,)),)))
    a = rep_vword(v, 10)
    assert a.band == 8 and a.reach == 2
    prod = mul_op(a, a)
    assert prod.band == 6 and prod.reach == 4
    with pytest.raises(BandExhausted):
        rep_vword(make_vword(m, WordTrace((((0,), (9,)),))), 8)


def test_projection_identity_examples(n1, f2):
    # N^1 at depth 1 over 0..3 holds P, 2P and 3P; F2+ at depth 1 holds P,
    # aP and bP, whose meet is empty
    lat = enumerate_ideals(n1, 1, 3, 10)
    P = full_ideal(n1)
    tokens = {x.exact for x in lat.ideals}
    assert {left_mul((k,), P).exact for k in (0, 2, 3)} <= tokens
    assert check_projection_identity(lat, 10) == ((len(lat.ideals) - 1) ** 2,
                                                 True)
    flat = enumerate_ideals(f2, 1, 1, 6)
    Pf = full_ideal(f2)
    aP, bP = left_mul("a", Pf), left_mul("b", Pf)
    assert {aP.exact, bP.exact} <= {x.exact for x in flat.ideals}
    assert check_projection_identity(flat, 6) == ((len(flat.ideals) - 1) ** 2,
                                                  True)
    prod = mul_op(projection_op(aP, 6), projection_op(bP, 6))
    assert prod.cols == {}


def _planted_meet(lat, i, j, k):
    """The lattice with entry ``[i][j]`` of its meet rows set to k."""
    meet = list(lat.meet)
    meet[i] = meet[i][:j] + (k,) + meet[i][j + 1:]
    return dataclasses.replace(lat, meet=tuple(meet))


def test_run_projection_identity_checks_the_intersection_table(monkeypatch):
    # the right side is the mask the table names: one wrong entry, here the
    # full ideal for a proper meet, fails the check and only it
    import sgclab.cli as cli_mod
    real = cli_mod.enumerate_ideals

    def wrong_entry(*args):
        lat = real(*args)
        i, j = next((i, j) for i in lat.nonempty_indices()
                    for j in lat.nonempty_indices()
                    if lat.meet[i][j] != 0)
        return _planted_meet(lat, i, j, 0)

    doc = {"model": {"family": "free_monoid", "rank": 2},
           "analyses": ["fock"], "caps": {"trace_depth": 2}}
    result = run(RunConfig.from_dict(doc))[0]["results"]["fock"]
    assert result["projection_identity"]["ok"] is True
    monkeypatch.setattr(cli_mod, "enumerate_ideals", wrong_entry)
    result = run(RunConfig.from_dict(doc))[0]["results"]["fock"]
    assert result["projection_identity"]["ok"] is False
    assert result["multiplicative_on_band"] is True
    assert result["tier"] == "inconclusive"


@pytest.mark.parametrize("depth", [2, 3])
def test_projection_identity_matches_the_product_route(all_models, lattice_of,
                                                       depth):
    # key-set intersections and mask products read the same pairs and the
    # same verdict; a planted wrong table entry, the full or the empty
    # ideal for a meet whose mask differs, fails both routes
    for model in all_models:
        n = params_for(model)[3]
        lat = lattice_of(model, depth=depth)
        pairs = len(lat.nonempty_indices()) ** 2
        assert (check_projection_identity(lat, n)
                == product_projection_identity(lat, n) == (pairs, True))
        masks = [projection_op(x, n).cols for x in lat.ideals]
        for wrong in (0, lat.empty_index):
            i, j = next((i, j) for i in lat.nonempty_indices()
                        for j in lat.nonempty_indices()
                        if masks[lat.meet[i][j]] != masks[wrong])
            planted = _planted_meet(lat, i, j, wrong)
            assert (check_projection_identity(planted, n)
                    == product_projection_identity(planted, n)
                    == (pairs, False)), (model.name, wrong)


def test_ops_store_no_zero_columns(f2):
    # emptied columns are dropped, never stored
    n = 5
    P = full_ideal(f2)
    aP, bP = left_mul("a", P), left_mul("b", P)
    v = make_vword(f2, WordTrace((("", "a"),)))
    assert v.grading == "a"
    a = rep_vword(v, n)
    assert a.cols
    for op in (mul_op(projection_op(aP, n), projection_op(bP, n)),
               diagonal_part(a)):
        assert op.cols == {}
        # an absent column is a zero column, on either side, and a's
        # columns inside its band n - 1 already differ
        assert not equal_on_band(op, a) and not equal_on_band(a, op)
    # down * up = 1, except on the words whose image under up leaves the
    # basis; up * down is the mask of aP
    down = rep_vword(make_vword(f2, WordTrace((("a", ""),))), n)
    assert mul_op(down, a).cols == {j: j for j, s in enumerate(f2.basis(n)[0])
                                    if len(s) < n}
    assert mul_op(a, down).cols == projection_op(aP, n).cols


@pytest.mark.parametrize("n", [4, 8])
def test_equal_on_band_matches_entrywise_oracle(all_models, family_of,
                                               lattice_of, n):
    # masks have band n, so mask pairs take the whole-map comparison;
    # words and products shrink the band and are compared column by column
    whole = banded = 0
    for model in all_models:
        masks = [projection_op(x, n) for x in lattice_of(model).ideals[:10]]
        words = [rep_vword(v, n) for v in family_of(model).members[:30]
                 if word_reach(v) <= n][:10]
        ops = masks + words + [mul_op(a, b) for a, b in zip(words, masks)]
        for a, b in itertools.product(ops, repeat=2):
            whole += min(a.band, b.band) >= n
            assert equal_on_band(a, b) == entrywise_equal_on_band(a, b)
        for a in ops:
            if not a.cols:
                continue
            # a change at column 0, the unit, lies inside every band
            inside = dataclasses.replace(
                a, cols={**a.cols, 0: a.cols.get(0, 0) + 1})
            assert not equal_on_band(a, inside)
            assert not entrywise_equal_on_band(a, inside)
            last = max(a.cols)
            outside = dataclasses.replace(
                a, cols={j: i for j, i in a.cols.items() if j != last})
            beyond = model.length(model.basis(n)[0][last]) > a.band
            assert (equal_on_band(a, outside)
                    == entrywise_equal_on_band(a, outside) == beyond)
            banded += beyond
    assert whole > 0 and banded > 0


def test_equal_on_band_ignores_columns_outside_the_band(f2):
    # down * up is the identity except on the words of length n, whose
    # image under up leaves the basis; those columns lie outside the band
    n = 5
    up = rep_vword(make_vword(f2, WordTrace((("", "a"),))), n)
    down = rep_vword(make_vword(f2, WordTrace((("a", ""),))), n)
    product, one = mul_op(down, up), projection_op(full_ideal(f2), n)
    assert product.band == n - 1 and product.cols != one.cols
    assert equal_on_band(product, one)
    assert entrywise_equal_on_band(product, one)
    short = dataclasses.replace(product, cols={**product.cols, 1: 0})
    assert not equal_on_band(short, one)
    assert not entrywise_equal_on_band(short, one)


def _terms(words, n):
    """``(c, v, op)`` terms of ``(c, v)`` pairs, each matrix built here by
    the module's (possibly patched) ``rep_vword``."""
    import sgclab.fock as fock_mod
    return [(c, v, fock_mod.rep_vword(v, n)) for c, v in words]


def _words(terms):
    """The ``(v, op)`` items of terms, as ``cond_expectation`` reads them."""
    return [(v, op) for _, v, op in terms]


def test_cond_expectation_examples(n1):
    P = full_ideal(n1)
    i1 = left_mul((1,), P)
    v1 = make_vword(n1, WordTrace((((0,), (1,)),)))
    e1 = idempotent_vword(i1)
    v12 = make_vword(n1, WordTrace((((1,), (2,)),)))
    for v, want in ((v1, {}), (e1, {j: 1 for j in projection_op(i1, 8).cols}),
                    (v12, {})):
        terms = _terms([(Fraction(1), v)], 8)
        assert cond_expectation(_words(terms)) is True
        assert diagonal_expectation(terms) == want


def test_cond_expectation_mixed_combination(n1):
    P = full_ideal(n1)
    v1 = make_vword(n1, WordTrace((((0,), (1,)),)))
    terms = [(Fraction(3, 2), idempotent_vword(P)),
             (Fraction(-2), v1),
             (Fraction(1, 3), idempotent_vword(left_mul((2,), P)))]
    built = _terms(terms, 8)
    assert cond_expectation(_words(built)) is True
    ce = diagonal_expectation(built)
    assert ce[0] == Fraction(3, 2)
    assert ce[3] == Fraction(3, 2) + Fraction(1, 3)
    full, _ = graded_sum(terms, 8)
    # every column agrees, not only those inside the oracle's band
    assert ce == {j: col[j] for j, col in full.items() if j in col}


def test_cond_expectation_int_and_fraction_coefficients(all_models,
                                                        family_of):
    # the package's word matrices, with int and Fraction coefficients and
    # non-unit denominators among them, sum exactly to graded_sum's
    # diagonal, on every column
    coeffs = [1, Fraction(1, 2), Fraction(-1, 3), -2, Fraction(5, 6), 3]
    for model in all_models:
        n = 6 if model.family == "free_monoid" else 10
        words = [v for v in family_of(model).members if word_reach(v) <= n]
        terms = _terms(list(zip(itertools.cycle(coeffs), words[:12])), n)
        assert cond_expectation(_words(terms)) is True
        ce = diagonal_expectation(terms)
        full, _ = graded_sum([(c, v) for c, v, _ in terms], n)
        assert ce == {j: col[j] for j, col in full.items() if j in col}
        assert ce and all(type(x) is Fraction for x in ce.values())
        assert diagonal_expectation(_terms([(2, words[0])], n)) == {
            j: 2 for j in diagonal_part(rep_vword(words[0], n)).cols}


def test_cond_expectation_builds_each_term_once(n1, monkeypatch):
    # the caller builds each word's matrix once; the check builds none
    import sgclab.fock as fock_mod
    calls = []
    real = fock_mod.rep_vword

    def counted(v, n):
        calls.append(v)
        return real(v, n)

    monkeypatch.setattr(fock_mod, "rep_vword", counted)
    P = full_ideal(n1)
    v1 = make_vword(n1, WordTrace((((0,), (1,)),)))
    words = [idempotent_vword(P), v1, idempotent_vword(left_mul((2,), P)),
             zero_vword(n1)]
    items = _words(_terms([(1, v) for v in words], 8))
    assert [id(v) for v in calls] == [id(v) for v in words]
    assert cond_expectation(items) is True
    assert len(calls) == len(words)
    # no word, nothing to disagree on
    assert cond_expectation([]) is True


def _plant_column_0(monkeypatch, unit_graded):
    """Move column 0 of every unit-graded word's matrix off the diagonal,
    to row 1, or fix it, at row 0, in every other nonzero word's matrix:
    column 0 is the unit, of length 0, so the entry lies inside every
    band."""
    import sgclab.fock as fock_mod
    real = fock_mod.rep_vword

    def planted(v, n):
        op = real(v, n)
        if v.is_zero or (v.grading == v.model.unit) != unit_graded:
            return op
        return dataclasses.replace(op, cols={**op.cols, 0: int(unit_graded)})

    monkeypatch.setattr(fock_mod, "rep_vword", planted)


def test_cond_expectation_checks_each_term(n1, monkeypatch):
    # v - v cancels in a sum, so only a check on each word sees v's stray
    # entry
    v = idempotent_vword(full_ideal(n1))
    terms = _terms([(1, v), (-1, v)], 8)
    assert cond_expectation(_words(terms)) is True
    _plant_column_0(monkeypatch, unit_graded=True)
    terms = _terms([(1, v), (-1, v)], 8)
    assert diagonal_expectation(terms) == {}
    assert cond_expectation(_words(terms)) is False


def _oracle_check(v, op):
    """The expectation check of one word by the two matrices: the grading
    filter's (the word's own matrix when it is unit graded, else the empty
    map) against the diagonal copy of the word's matrix, on their shared
    band."""
    unit_graded = not v.is_zero and v.grading == v.model.unit
    kept = op if unit_graded else TruncOp(op.model, op.n, {}, op.n, 0)
    return equal_on_band(kept, diagonal_part(op))


def test_cond_expectation_matches_the_oracle_comparison(all_models,
                                                       family_of):
    # every family word as built, and with each planted corruption that
    # applies to it: a fixed column inside a graded word's band, a moved
    # column of a unit-graded word, a fixed column outside a graded word's
    # band; one corrupted word decides the check over the whole family
    planted = {"inside": 0, "moved": 0, "outside": 0}
    for model in all_models:
        n = 6 if model.family == "free_monoid" else 10
        size = len(model.basis(n)[0])
        words = [(v, rep_vword(v, n)) for v in family_of(model).members
                 if word_reach(v) <= n]
        assert cond_expectation(words) is True
        for v, op in words:
            assert cond_expectation([(v, op)]) and _oracle_check(v, op)
            if v.is_zero:
                continue
            if v.grading == model.unit:
                cases = [("moved", {0: 1}, False)]
            else:
                cases = [("inside", {0: 0}, False)]
                if len(model.enumerate_p(op.band)) < size:
                    cases.append(("outside", {size - 1: size - 1}, True))
            for name, cols, want in cases:
                bad = dataclasses.replace(op, cols={**op.cols, **cols})
                assert (cond_expectation([(v, bad)])
                        == _oracle_check(v, bad) == want), (model.name, name)
                assert cond_expectation(words + [(v, bad)]) == want
                planted[name] += 1
    assert all(planted.values()), planted


def test_run_reports_grading_mismatch(monkeypatch):
    # a moved column in a unit-graded word, then a fixed column inside a
    # graded word's band
    doc = {"model": {"family": "free_monoid", "rank": 2},
           "analyses": ["fock"], "caps": {"trace_depth": 2}}
    for unit_graded in (True, False):
        with monkeypatch.context() as patched:
            _plant_column_0(patched, unit_graded)
            report, code = run(RunConfig.from_dict(doc))
        result = report["results"]["fock"]
        assert result["expectation_two_routes_agree"] is False
        assert result["tier"] == "inconclusive" and code == 2


def test_run_checks_expectation_once_per_family_word(monkeypatch):
    # one check over the family, each word once, in member order
    import sgclab.fock as fock_mod
    import sgclab.invsgp as invsgp_mod
    families, calls = [], []
    real_enumerate = invsgp_mod.enumerate_vwords
    real_expectation = fock_mod.cond_expectation

    def enumerate_recorded(*args):
        families.append(real_enumerate(*args))
        return families[-1]

    def expectation_recorded(words):
        calls.append(list(words))
        return real_expectation(calls[-1])

    monkeypatch.setattr(invsgp_mod, "enumerate_vwords", enumerate_recorded)
    monkeypatch.setattr(fock_mod, "cond_expectation", expectation_recorded)
    doc = {"model": {"family": "free_monoid", "rank": 2},
           "caps": {"trace_depth": 2}}
    report, _ = run(RunConfig.from_dict(doc))
    assert report["results"]["fock"]["expectation_two_routes_agree"] is True
    (fam,) = families
    assert len(fam.members) > 1
    (words,) = calls
    assert [id(v) for v, _ in words] == [id(v) for v in fam.members]
    # each word carries its matrix at the run's truncation
    n = report["results"]["fock"]["params"]["trunc"]
    for v, op in words:
        assert op.n == n and op.cols == rep_vword(v, n).cols


def test_run_builds_each_ideal_mask_and_word_matrix_once(monkeypatch):
    # one mask per lattice ideal, the empty one included; one matrix per
    # family word, plus the product side of each sampled pair
    import sgclab.cli as cli_mod
    import sgclab.fock as fock_mod
    import sgclab.invsgp as invsgp_mod
    lattices, families, words, masks = [], [], [], []
    real_lattice, real_family = cli_mod.enumerate_ideals, invsgp_mod.enumerate_vwords
    real_rep, real_mask = fock_mod.rep_vword, fock_mod.projection_op

    def lattice_recorded(*args):
        lattices.append(real_lattice(*args))
        return lattices[-1]

    def family_recorded(*args):
        families.append(real_family(*args))
        return families[-1]

    def rep_counted(v, n):
        words.append(v)
        return real_rep(v, n)

    def mask_counted(x, n):
        masks.append(x)
        return real_mask(x, n)

    monkeypatch.setattr(cli_mod, "enumerate_ideals", lattice_recorded)
    monkeypatch.setattr(invsgp_mod, "enumerate_vwords", family_recorded)
    monkeypatch.setattr(fock_mod, "rep_vword", rep_counted)
    monkeypatch.setattr(fock_mod, "projection_op", mask_counted)
    doc = {"model": {"family": "free_monoid", "rank": 3},
           "analyses": ["fock"], "caps": {"trace_depth": 2}}
    report, _ = run(RunConfig.from_dict(doc))
    result = report["results"]["fock"]
    assert result["tier"] == "exact"
    (lat,), (fam,) = lattices, families
    samples = result["params"]["samples"]
    assert samples == 50
    assert len(words) == len(fam.members) + samples
    assert len({v.dedup_key() for v in fam.members}) == len(fam.members)
    assert [x.exact for x in masks] == [x.exact for x in lat.ideals]
    assert result["projection_identity"]["pairs"] == (len(lat.ideals) - 1) ** 2


def test_nonzero_grading_is_strictly_off_diagonal(all_models, family_of):
    for model in all_models:
        n = 6 if model.family == "free_monoid" else 10
        for v in family_of(model).members[:15]:
            if v.grading == model.unit:
                continue
            op = rep_vword(v, n)
            assert all(i != j for j, i in op.cols.items())


# ---------------------------------------------------------------------------
# frames

def _flags(frame, width=None):
    """Every flag of a frame, point by point: its first ``width`` basis
    points, or all of them."""
    return tuple(map(frame.admissible,
                     range(len(frame.basis) if width is None else width)))


def test_frame_unit_set_keeps_everything(all_models):
    for model in all_models:
        n = 5
        frame = build_frame(model, [model.unit], n, {})
        assert _flags(frame) == (True,) * len(frame.basis)


def test_build_frame_validates(f2, num23):
    with pytest.raises(ModelError):
        build_frame(f2, ["aZ"], 4, {})
    # True would be kept as a frame element beside 1
    with pytest.raises(ModelError):
        build_frame(num23, [True], 5, {})
    # an unreduced word would be a second frame element for e
    with pytest.raises(ModelError):
        build_frame(f2, ["aA", ""], 3, {})


def test_build_frame_reads_a_generator_once(f2):
    # a one-pass iterable of elements yields the frame its list does
    listed = build_frame(f2, ["a", "b"], 4, {})
    once = build_frame(f2, iter(["a", "b"]), 4, {})
    assert once.f_set == listed.f_set == ("a", "b")
    assert _flags(once) == _flags(listed)
    assert not all(_flags(once))


def test_frame_chain_flags(n1):
    frame = build_frame(n1, [(0,), (1,)], 10, {})
    flags = [r for r, ok in zip(frame.basis, _flags(frame)) if ok]
    assert flags == [(r,) for r in range(1, 11)]


def test_frame_f2_single_letter(f2):
    frame = build_frame(f2, ["a"], 4, {})
    flags = _flags(frame)
    index = f2.basis(4)[1]
    assert flags[index["b"]]       # disjoint translate: no constraint
    assert not flags[index[""]]    # unit escapes a*P while meeting it
    assert flags[index["aa"]]


def test_frame_flags_match_oracle(all_models):
    for model in all_models:
        n = 4 if model.family == "free_monoid" else 8
        gens = list(model.generators)
        f_set = [model.unit, gens[0], model.inv(gens[-1])]
        frame = build_frame(model, f_set, n, {})
        for j, r in enumerate(frame.basis):
            assert frame.admissible(j) == frame_flag(model, frame.f_set, r)


def test_frame_translation_invariance(all_models):
    # flag_F(r) equals flag_{pF}(p r); and for r in s P the flag descends
    for model in all_models:
        n = 5 if model.family == "free_monoid" else 8
        gens = list(model.generators)
        frame = build_frame(model, [model.unit, gens[0]], n, {})
        flags = _flags(frame)
        index = model.basis(n)[1]
        for p in gens:
            shifted = _flags(build_frame(
                model, [model.mul(p, g) for g in frame.f_set], n, {}))
            for j, r in enumerate(frame.basis):
                pr = model.mul(p, r)
                i = index.get(pr)
                if i is not None:
                    assert flags[j] == shifted[i]
        for s in gens:
            for j, r in enumerate(frame.basis):
                div = divide(model, s, r)
                if div is None:
                    continue
                down = [model.mul(model.inv(s), g) for g in frame.f_set]
                assert flags[j] == frame_flag(model, down, div)


@pytest.mark.parametrize("rank", [2, 3])
def test_sc_limit_probe_tests_each_frame_element_once(rank, monkeypatch):
    # the default F2+ and F3+ chains, at the default truncation
    import sgclab.fock as fock_mod
    model = build_model({"family": "free_monoid", "rank": rank})
    n = model.default_trunc
    chain = default_f_chain(model, enumerate_vwords(model, 2, 1, 6).by_grading,
                            4)
    frames, tested = [], []
    real_norm, real_meets = fock_mod.sc_norm, model.meets_p

    def norm_recorded(frame, diagonal):
        frames.append(frame)
        return real_norm(frame, diagonal)

    def meets_counted(g):
        tested.append(g)
        return real_meets(g)

    monkeypatch.setattr(fock_mod, "sc_norm", norm_recorded)
    monkeypatch.setattr(model, "meets_p", meets_counted)
    terms = generator_covariance_terms(model)
    band = sc_limit_probe(terms, chain, model, n).band
    elements = {g for f_set in chain for g in f_set}
    basis = model.basis(band)[0]
    assert len(tested) <= len(elements) * len(basis)
    assert [frame.f_set for frame in frames] == list(chain)
    for frame in frames:
        assert _flags(frame, len(basis)) == tuple(
            frame_flag(model, frame.f_set, r) for r in basis)


def test_sc_limit_probe_tests_each_pair_once(monkeypatch):
    # each (element, point) pair is tested at most once per probe, and the
    # default F3+ chain tests few of the 31 * 364 pairs of its band, the
    # count an eager flagging of every band point would test
    model = build_model({"family": "free_monoid", "rank": 3})
    n = model.default_trunc
    chain = default_f_chain(model, enumerate_vwords(model, 2, 1, 6).by_grading,
                            4)
    terms = generator_covariance_terms(model)
    pairs = []
    real = model.mul

    def counted(g_inv, r):
        pairs.append((g_inv, r))
        return real(g_inv, r)

    monkeypatch.setattr(model, "mul", counted)
    probe = sc_limit_probe(terms, chain, model, n)
    elements = {g for f_set in chain for g in f_set}
    assert len(elements) * len(model.basis(probe.band)[0]) == 11284
    assert 0 < len(pairs) == len(set(pairs)) <= 300
    # a second probe keeps no memo of the first
    sc_limit_probe(terms, chain, model, n)
    assert pairs[len(pairs) // 2:] == pairs[:len(pairs) // 2]


def test_sc_limit_probe_validates_each_frame_element_once(monkeypatch):
    # build_frame is the one validation point: the default F3+ chain holds
    # 31 distinct elements, each validated once, and a malformed element
    # is still refused
    model = build_model({"family": "free_monoid", "rank": 3})
    n = model.default_trunc
    chain = default_f_chain(model, enumerate_vwords(model, 2, 1, 6).by_grading,
                            4)
    terms = generator_covariance_terms(model)
    calls = []
    real = model.validate

    def counted(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(model, "validate", counted)
    sc_limit_probe(terms, chain, model, n)
    elements = {g for f_set in chain for g in f_set}
    assert len(elements) == 31 and sorted(calls) == sorted(elements)
    for bad in (["a", "aZ"], ["aA", ""], [("a",)]):
        with pytest.raises(ModelError):
            sc_limit_probe(terms, [["a"], bad], model, n)
    # True equals the flagged 1, and is refused all the same
    num = build_model({"family": "numerical", "generators": [2, 3]})
    with pytest.raises(ModelError):
        sc_limit_probe(generator_covariance_terms(num), [[0, 1], [True]],
                       num, num.default_trunc)


@pytest.mark.parametrize("rank", [2, 3])
def test_sc_limit_probe_frames_cover_the_band_basis(rank, monkeypatch):
    # the frames cover exactly the points inside the guard band, flag each
    # of them as the oracle does, and each norm equals the one over a frame
    # of the whole truncation, whose basis the probe never lists
    import sgclab.fock as fock_mod
    model = build_model({"family": "free_monoid", "rank": rank})
    n = model.default_trunc
    terms = generator_covariance_terms(model)
    band = n - max(word_reach(v) for _, v in terms)
    chain = default_f_chain(model, enumerate_vwords(model, 2, 1, 6).by_grading,
                            4)
    frames, points, listed = [], [], []
    real_norm, real_mul, real_basis = fock_mod.sc_norm, model.mul, model.basis

    def norm_recorded(frame, diagonal):
        frames.append(frame)
        return real_norm(frame, diagonal)

    def mul_recorded(g_inv, r):
        points.append(r)
        return real_mul(g_inv, r)

    def basis_recorded(m):
        listed.append(m)
        return real_basis(m)

    monkeypatch.setattr(fock_mod, "sc_norm", norm_recorded)
    monkeypatch.setattr(model, "mul", mul_recorded)
    monkeypatch.setattr(model, "basis", basis_recorded)
    probe = sc_limit_probe(terms, chain, model, n)
    monkeypatch.undo()
    assert 0 <= band < n and probe.band == band
    assert points and all(model.length(r) <= band for r in points)
    assert listed and set(listed) == {band}
    basis = model.basis(band)[0]
    assert len(frames) == len(chain)
    for frame, enclosure in zip(frames, probe.enclosures):
        assert frame.basis == basis
        flags = _flags(frame)
        assert len(flags) == len(basis)
        assert flags == tuple(frame_flag(model, frame.f_set, r) for r in basis)
        whole = build_frame(model, frame.f_set, n, {})
        assert _flags(whole, len(basis)) == flags
        diagonal = compressed_matrix(terms, model, n)
        assert real_norm(whole, diagonal) == enclosure


def test_sc_limit_probe_reach_beyond_truncation(f2, monkeypatch):
    # the probe refuses before it builds any frame, with the message the
    # diagonal raises on a negative band
    import sgclab.fock as fock_mod
    P = full_ideal(f2)
    deep = left_mul("a", left_mul("a", left_mul("a", left_mul("a", P))))
    terms = [(Fraction(1), idempotent_vword(deep))]   # reach 4 > trunc 3
    with pytest.raises(BandExhausted) as direct:
        compressed_matrix(terms, f2, 3)
    monkeypatch.setattr(fock_mod, "build_frame",
                        lambda *args: pytest.fail("a frame was flagged"))
    with pytest.raises(BandExhausted) as probed:
        sc_limit_probe(terms, [["a"], ["a", "b"]], f2, 3)
    assert str(probed.value) == str(direct.value) == (
        "no admissible basis points inside the guard band")


SC_MODELS = {
    **{f"F{r}+": {"family": "free_monoid", "rank": r} for r in (1, 2, 3)},
    **{f"N^{r}": {"family": "free_abelian", "rank": r} for r in (1, 2, 3)},
    **{f"<{','.join(map(str, g))}>": {"family": "numerical", "generators": g}
       for g in ([2, 3], [3, 5, 7], [4, 7, 9])},
}


@pytest.mark.parametrize("model_doc,depth", [
    pytest.param(doc, depth, id=f"{name}-D{depth}")
    for name, doc in SC_MODELS.items() for depth in (1, 2, 3)])
def test_sc_probe_matches_the_eager_oracle(model_doc, depth, monkeypatch):
    # the lazy probe of a run reads the frames, enclosures, verdict and band
    # of the eager oracle, and raises BandExhausted exactly where it does
    import sgclab.fock as fock_mod
    seen = {}
    real = fock_mod.sc_limit_probe

    def recorded(*args):
        seen["args"] = args
        seen["probe"] = real(*args)
        return seen["probe"]

    monkeypatch.setattr(fock_mod, "sc_limit_probe", recorded)
    report, _ = run(RunConfig.from_dict(
        {"model": model_doc, "caps": {"trace_depth": depth},
         "analyses": ["sc"]}))
    try:
        want = eager_sc_probe(*seen["args"])
    except BandExhausted:
        assert "probe" not in seen
        assert report["results"]["sc"] == {
            "op": "sc", "tier": "inconclusive",
            "error": "BandExhausted: no admissible basis points inside the "
                     "guard band"}
        return
    probe = seen["probe"]
    assert (probe.frames, probe.enclosures, probe.non_increasing,
            probe.verdict, probe.band) == want


def test_compressed_matrix_matches_frame_oracle(f2):
    n = 6
    frame = build_frame(f2, ["a", "b"], n, {})
    P = full_ideal(f2)
    aP, bP = left_mul("a", P), left_mul("b", P)
    terms = [(Fraction(1), idempotent_vword(P)),
             (Fraction(-1), idempotent_vword(aP)),
             (Fraction(-1), idempotent_vword(bP))]
    values, band = compressed_matrix(terms, f2, n)
    labels = [j for j in range(len(f2.enumerate_p(band)))
              if frame.admissible(j)]
    assert labels
    for j in labels:
        r = frame.basis[j]
        want = Fraction(0)
        for c, v in terms:
            if frame_pointwise_applies(f2, frame.f_set, v.trace.pairs, r) == r:
                want += c
        assert values.get(j, 0) == want


def test_compressed_matrix_int_and_fraction_coefficients(all_models):
    # the generator masks and their pairwise meets, with int and Fraction
    # coefficients, against the frame oracle and graded_sum's diagonal
    coeffs = [1, Fraction(1, 2), Fraction(-1, 3), -2, Fraction(5, 6)]
    for model in all_models:
        n = 6 if model.family == "free_monoid" else 16
        P = full_ideal(model)
        gens = [left_mul(s, P) for s in model.generators]
        ideals_ = [P] + gens + [intersect(x, y)
                                for x, y in itertools.combinations(gens, 2)]
        terms = list(zip(itertools.cycle(coeffs),
                         [idempotent_vword(x) for x in ideals_]))
        full, band = graded_sum(terms, n)
        frame = build_frame(model, model.generators, n, {})
        values, got_band = compressed_matrix(terms, model, n)
        inside = [j for j, r in enumerate(frame.basis)
                  if model.length(r) <= band]
        assert got_band == band
        # the nonzero diagonal inside the band, largest absolute value first
        assert set(values) == {j for j in inside if full.get(j, {}).get(j)}
        assert list(values) == sorted(values,
                                      key=lambda j: (-abs(values[j]), j))
        assert all(type(d) is Fraction for d in values.values())
        labels = [j for j in inside if frame.admissible(j)]
        assert labels == [j for j in inside
                          if frame_flag(model, frame.f_set, frame.basis[j])]
        diagonal = [values.get(j, Fraction(0)) for j in labels]
        assert labels and any(d.denominator > 1 for d in diagonal)
        for d, j in zip(diagonal, labels):
            r = frame.basis[j]
            assert d == sum(c for c, v in terms if not v.is_zero
                            and frame_pointwise_applies(
                                model, frame.f_set, v.trace.pairs, r) == r)
            assert d == full.get(j, {}).get(j, 0)
        lo, hi = sc_norm(frame, (values, got_band))
        assert lo == hi == max(abs(d) for d in diagonal)
        probe = sc_limit_probe(terms, [model.generators], model, n)
        assert probe.enclosures == ((lo, hi),)


def test_sc_norm_identity(all_models):
    for model in all_models:
        P = full_ideal(model)
        probe = sc_limit_probe([(Fraction(1), idempotent_vword(P))],
                               [[model.unit]], model, 5)
        assert probe.enclosures == ((1, 1),)


def test_sc_norm_free_monoid_covariance(f2):
    P = full_ideal(f2)
    aP, bP = left_mul("a", P), left_mul("b", P)
    terms = [(Fraction(1), idempotent_vword(P)),
             (Fraction(-1), idempotent_vword(aP)),
             (Fraction(-1), idempotent_vword(bP))]
    for f_set in (["a", "b"], ["a", "b", "aa", "ab"]):
        probe = sc_limit_probe(terms, [f_set], f2, 7)
        assert probe.enclosures == ((0, 0),)


def test_sc_norm_band_exhausted(f2):
    # at trunc 4 the band of a^4 P's mask holds only the unit, which the
    # frame {a} rejects: it meets a*P and escapes it
    P = full_ideal(f2)
    deep = left_mul("a", left_mul("a", left_mul("a", left_mul("a", P))))
    terms = [(Fraction(1), idempotent_vword(deep))]   # reach 4
    diagonal = compressed_matrix(terms, f2, 4)
    assert diagonal == ({}, 0)
    with pytest.raises(BandExhausted):
        sc_norm(build_frame(f2, ["a"], 0, {}), diagonal)
    with pytest.raises(BandExhausted):
        sc_limit_probe(terms, [["a"]], f2, 4)
    # at trunc 3 the band is negative
    with pytest.raises(BandExhausted):
        sc_limit_probe(terms, [["a"]], f2, 3)


def test_sc_limit_probe_chain(n1):
    P = full_ideal(n1)
    terms = [(Fraction(1), idempotent_vword(P)),
             (Fraction(-1), idempotent_vword(left_mul((1,), P)))]
    chain = [[(j,) for j in range(k + 1)] for k in range(7)]
    probe = sc_limit_probe(terms, chain, n1, 30)
    assert [hi for _, hi in probe.enclosures] == [1, 0, 0, 0, 0, 0, 0]
    assert probe.non_increasing
    assert probe.verdict == "vanishing-evidence"


def test_sc_limit_probe_zero(n1):
    P = full_ideal(n1)
    zero_terms = [(Fraction(0), idempotent_vword(P))]
    chain = [[(0,)], [(0,), (1,)]]
    probe = sc_limit_probe(zero_terms, chain, n1, 20)
    assert all(lo == hi == 0 for lo, hi in probe.enclosures)
    assert probe.verdict == "vanishing-evidence"


def test_sc_limit_probe_nonvanishing(f2, family_of):
    P = full_ideal(f2)
    aP = left_mul("a", P)
    fam = family_of(f2)
    chain = default_f_chain(f2, fam.by_grading.keys(), 3)
    probe = sc_limit_probe([(Fraction(1), idempotent_vword(aP))], chain, f2, 7)
    assert all(lo >= 1 for lo, _ in probe.enclosures)
    assert probe.verdict == "non-vanishing-evidence"


def test_generator_covariance_terms(n2, f2):
    terms = generator_covariance_terms(f2)
    assert len(terms) == 4
    assert sc_limit_probe(terms, [["a", "b"]], f2, 7).enclosures == ((0, 0),)
    # in the rank-2 lattice the product form is needed: the plain defect
    # of the two generator masks does not vanish
    P2 = full_ideal(n2)
    plain = [(Fraction(1), idempotent_vword(P2)),
             (Fraction(-1), idempotent_vword(left_mul((1, 0), P2))),
             (Fraction(-1), idempotent_vword(left_mul((0, 1), P2)))]
    frame2 = [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert sc_limit_probe(plain, [frame2], n2, 8).enclosures == ((1, 1),)
    assert sc_limit_probe(generator_covariance_terms(n2), [frame2], n2,
                          8).enclosures == ((0, 0),)


def test_triplet_dump_format(n1):
    v = make_vword(n1, WordTrace((((0,), (1,)),)))
    text = rep_vword(v, 3).to_triplet_text()
    lines = text.strip().split("\n")
    assert lines[0] == "# truncop 4 4 2 1"
    assert lines[1:] == ["1 0 1/1", "2 1 1/1", "3 2 1/1"]
