"""Independent brute-force oracles used by the test suite.

These deliberately avoid the package's exact-token calculus: traces are
evaluated by raw set comprehensions over a widened truncation, word actions
by stepping through the factors pointwise, filters by a full subset scan,
the character of a point by set evaluation of each fragment ideal's trace,
matrix rank by Fraction Gaussian elimination, a rational combination of
words by summing their basis-scan columns entrywise (the package itself
never realizes a combination as one matrix), and the equality of two
operators on their guard band column by column.  Numerical-token subset,
cover and intersection scan every point below the largest tail; the
composition law of the partial action is checked one ``theta_apply``
instance at a time, and the word family is built by evaluating every trace
instead of extending one trace per word.  ``uncached_walk`` carries a
token through the model's kernels afresh at every step, without the
model's step cache, and ``restrict`` reads a character of a deeper
fragment on a shallower one by matching ideal tokens.  The norm probe is
rerun eagerly, every point of its band flagged for every frame, and the
projection identity by multiplying masks, where the package intersects
their key sets.  ``forward_image`` decides an entry of theta forward,
walking the word's trace from the character's least ideal, where the
package pulls every fragment ideal back along the starred trace, and
``rule_table`` reads theta one character at a time, testing each
pullback's ``scan_pair`` on the character, where the package descends the
covers to each pullback's column masks and transposes a carrier's columns
into the rows of every character it serves.  ``freeness_reference`` runs
the freeness probe one ``theta_apply`` and one character evaluation at a
time, where the package reads tables and ANDs bitmasks.
``plain_grading`` folds a trace's grading from p^-1 and q afresh at every
pair, where the package reads cached pair factors p^-1 q.
The lattice's order data is read the O(n^2) way: meet rows from every
pair's token intersection, ``up`` scanned off them, ``down`` as the
transpose of ``up``, covers by testing every pair, and the independence
search's strictly smaller members by scanning every up mask, where the
package sets containment in the closure's one pass and walks set bits.
The diagonal expectation is summed term by term from word matrices and
their diagonals copied out, where the package only compares each word's
grading with its matrix's fixed columns.  Numerical membership is sieved entry by entry up to Schur's bound, where the package
reads the Apery set of the smallest generator, and the boundary's
unresolved instances are the events of one ``invariant_closure`` per
seed, where the package searches a successor graph.  The three models of
N (numerical <1>, free_abelian and free_monoid of rank 1) share no token
code, so ``normalized_n_body`` reads their reports in one rendering, for a
test that they agree.  Expected values frozen into tests were produced by
these functions.
"""

import json
from fractions import Fraction

from sgclab.fock import (BandExhausted, TruncOp, equal_on_band, mul_op,
                         projection_op)
from sgclab.ideals import IndependenceResult, WordTrace, from_trace, walk
from sgclab.invsgp import make_vword
from sgclab.models import EMPTY, ModelError
from sgclab.spectrum import (AMBIGUOUS, OUTSIDE, FreenessVerdict,
                             invariant_closure, theta_apply)


def brute_trace_members(model, pairs, radius):
    """Set evaluation of a trace, right to left, over a truncation widened
    by the total pullback length so the result is exact within radius."""
    work = radius + sum(model.length(p) for p, _ in pairs)
    cur = set(model.enumerate_p(work))
    for p, q in reversed(pairs):
        shifted = set()
        for x in cur:
            y = model.mul(q, x)
            if model.length(y) <= work:
                shifted.add(y)
        cur = set()
        for y in shifted:
            z = model.mul(model.inv(p), y)
            if model.in_p(z):
                cur.add(z)
    return frozenset(x for x in cur if model.length(x) <= radius)


def uncached_walk(model, pairs, tok):
    """``ideals.walk`` without the step cache: each step calls
    ``exact_left_mul`` and ``exact_preimage``, right to left."""
    for p, q in reversed(pairs):
        tok = model.exact_preimage(p, model.exact_left_mul(q, tok))
    return tok


def pointwise_word_apply(model, pairs, x):
    """Apply the word factor by factor: multiply by q_i, divide by p_i,
    rightmost pair first; None when a division leaves the submonoid."""
    cur = x
    for p, q in reversed(pairs):
        cur = model.mul(q, cur)
        cur = model.mul(model.inv(p), cur)
        if not model.in_p(cur):
            return None
    return cur


def principal_character(fragment, p):
    """The evaluation character x -> [p in x] of a fragment, as a position:
    the ideals holding p are found by ``brute_trace_members``, and their
    pattern must be the up mask of a fragment position."""
    model = fragment.lattice.model
    radius = model.length(p)
    bits = sum(1 << pos for pos in range(fragment.size())
               if p in brute_trace_members(
                   model, fragment.ideal_at(pos).trace.pairs, radius))
    assert bits in fragment.pos_of_up, "membership pattern is not a filter"
    return fragment.pos_of_up[bits]


def forward_image(ctx, g, chi):
    """theta_g(chi) by the forward route: the up mask of the fragment
    positions containing v(c), where c is chi's least ideal and v the first
    word of grading g whose domain chi holds; None when no such word.

    A word is a partial bijection, so for c inside dom v the pullback of y
    holds c exactly when v(c) lies in y.  The image is walked along v's
    trace from c's token, and its positions found by a plain
    ``exact_subset`` scan, with no pullback and no recipe."""
    frag, model = ctx.fragment, ctx.model
    toks = [frag.ideal_at(p).exact for p in range(frag.size())]
    for idx in ctx.family.by_grading.get(g, ()):
        v = ctx.family.members[idx]
        if v.dom in toks and frag.up_masks[chi] >> toks.index(v.dom) & 1:
            image = walk(model, v.trace.pairs, toks[chi])
            return sum(1 << p for p, t in enumerate(toks)
                       if model.exact_subset(image, t))
    return None


def scan_pair(frag, z):
    """Token z as the mask pair ``(ups, downs)`` by plain ``exact_subset``
    scans: the fragment positions inside z and those containing it."""
    model = frag.lattice.model
    toks = [frag.ideal_at(w).exact for w in range(frag.size())]
    subset = model.exact_subset
    return (sum(1 << w for w, t in enumerate(toks) if subset(t, z)),
            sum(1 << w for w, t in enumerate(toks) if subset(z, t)))


def rule_table(ctx, g):
    """theta_g one character at a time: ``(table, details)`` as
    ``ThetaContext.table(g)`` and its ``details`` entries should hold them.

    For each character chi the first carrier whose domain chi holds is
    read, and each fragment position's pullback ``scan_pair``
    ``(ups, downs)`` is tested on chi's up mask: 1 when chi holds one of
    ups, open when it holds all of downs, 0 otherwise.  The empty pullback,
    inside the empty ideal that no character holds, is ``(0, -1)``: 0 on
    every character.  Settled bits that are no filter raise ModelError."""
    frag, model = ctx.fragment, ctx.model
    n = frag.size()
    carriers = ctx.carriers(g)
    pullbacks, scans = {}, {}   # carrier index -> its pairs; token -> pair
    table, details = [], {}
    for chi in range(n):
        chi_bits = frag.up_masks[chi]
        entry = OUTSIDE
        for k, (v, dom_pos) in enumerate(carriers):
            if not chi_bits >> dom_pos & 1:
                continue
            if k not in pullbacks:
                star = v.trace.star().pairs
                pullbacks[k] = []
                for pos in range(n):
                    z = walk(model, star, frag.ideal_at(pos).exact)
                    if z not in scans:
                        scans[z] = ((0, -1) if z == EMPTY
                                    else scan_pair(frag, z))
                    pullbacks[k].append(scans[z])
            bits = unsettled = 0
            for pos, (ups, downs) in enumerate(pullbacks[k]):
                if chi_bits & ups:
                    bits |= 1 << pos
                elif not downs & ~chi_bits:
                    unsettled |= 1 << pos
            if unsettled:
                details[g, chi] = (bits, ~unsettled & (1 << n) - 1)
                entry = AMBIGUOUS
            elif bits in frag.pos_of_up:
                entry = frag.pos_of_up[bits]
            else:
                raise ModelError(f"theta at grading {model.render(g)!r},"
                                 f" character {chi}: bits are no filter")
            break
        table.append(entry)
    return tuple(table), details


def freeness_reference(ctx, chars, g_list):
    """``topological_freeness_probe`` one character at a time, as
    ``{g: FreenessVerdict}``.  Each character of ``chars``, in up-mask
    order, is classified from its ``theta_apply`` result: an image is
    moved when it escapes ``chars``, else fixed when it is chi and moved
    otherwise; an ambiguous result's completions are the characters of
    ``chars`` that agree with its bits where they are settled, and it is
    fixed when chi is the only one, moved when chi is not among them, and
    unresolved otherwise (none among them too).  Each sub-frontier
    position's cylinder is listed by evaluating every domain character at
    it.  An empty domain is free unless gP meets P and no family member
    has grading g: a deeper word may carry g, so it is inconclusive."""
    frag = ctx.fragment
    up = frag.up_masks
    chars = frozenset(chars)
    ordered = sorted(chars, key=up.__getitem__)
    frontier = max(frag.depths) if frag.depths else 0
    sub_frontier = [p for p, d in enumerate(frag.depths) if d < frontier]
    out = {}
    for g in g_list:
        domain, fixed, moved, unresolved = [], [], [], []
        for chi in ordered:
            res = theta_apply(ctx, g, chi)
            if res.status == "outside":
                continue
            domain.append(chi)
            if res.status == "image":
                if res.image not in chars:
                    kind = moved   # the image escaped the set
                else:
                    kind = fixed if res.image == chi else moved
            else:
                completions = [b for b in chars
                               if not (up[b] ^ res.bits) & res.settled]
                if not completions:
                    kind = unresolved
                elif all(b == chi for b in completions):
                    kind = fixed
                elif chi not in completions:
                    kind = moved
                else:
                    kind = unresolved
            kind.append(chi)
        witness = None
        for pos in sub_frontier:
            cylinder = [chi for chi in domain if up[chi] >> pos & 1]
            if cylinder and all(chi in fixed for chi in cylinder):
                witness = pos
                break
        if witness is not None:
            status, note = "not-free", "sub-frontier open set of fixed characters"
        elif not domain and ctx.model.meets_p(g) and not any(
                v.grading == g for v in ctx.family.members):
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


def maximal_filters(frag):
    """The characters whose up mask no other character's strictly holds:
    the principal filters of the minimal fragment ideals."""
    up = frag.up_masks
    chars = range(frag.size())
    return tuple(c for c in chars
                 if not any(up[o] != up[c] and up[c] & up[o] == up[c]
                            for o in chars))


def restrict(char, hi, lo):
    """A character of the finer fragment ``hi`` read on the coarser ``lo``:
    the mask of the ``lo`` positions whose ideals, matched by token, are
    among those ``char`` holds in ``hi``."""
    held = {hi.ideal_at(p).exact for p in range(hi.size())
            if hi.up_masks[char] >> p & 1}
    return sum(1 << p for p in range(lo.size())
               if lo.ideal_at(p).exact in held)


def brute_filters(ideal_members):
    """All filters on a finite meet-closed family, by subset scan.

    ``ideal_members`` lists the member frozensets of the non-empty ideals,
    the full ideal first.  Returns the set of support index-tuples.
    """
    n = len(ideal_members)
    assert n <= 20, "subset scan oracle capped at 20 ideals"
    out = set()
    for bits in range(1, 1 << n):
        support = [i for i in range(n) if (bits >> i) & 1]
        if 0 not in support:
            continue
        ok = True
        for i in support:
            for j in range(n):
                if j not in support and ideal_members[i] <= ideal_members[j]:
                    ok = False  # not upward closed
        for i in support:
            for j in support:
                meet = ideal_members[i] & ideal_members[j]
                hit = [k for k in range(n) if ideal_members[k] == meet]
                if not hit or hit[0] not in support:
                    ok = False  # meet escapes the support (or is empty)
        if ok:
            out.add(tuple(support))
    return out


def gauss_rank(matrix):
    """Rank over the rationals by plain Fraction elimination."""
    m = [[Fraction(v) for v in row] for row in matrix]
    if not m or not m[0]:
        return 0
    rows, cols = len(m), len(m[0])
    rank = 0
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        rank += 1
        if r == rows:
            break
    return rank


def frame_flag(model, f_set, r):
    """Admissibility of a basis point for a frame set, from first
    principles: every translate g*P that meets r*P must already contain r."""
    for g in f_set:
        u = model.mul(model.inv(g), r)
        if model.meets_p(u) and not model.in_p(u):
            return False
    return True


def frame_pointwise_applies(model, f_set, pairs, r):
    """Step the word through the translated frame slices, checking the
    admissibility flag after every factor; returns the endpoint or None."""
    cur, shift = r, model.unit
    if not frame_flag(model, f_set, cur):
        return None
    for p, q in reversed(pairs):
        cur = model.mul(q, cur)
        shift = model.mul(q, shift)
        if not frame_flag(model, [model.mul(shift, g) for g in f_set], cur):
            return None
        cur = model.mul(model.inv(p), cur)
        shift = model.mul(model.inv(p), shift)
        if not model.in_p(cur):
            return None
        if not frame_flag(model, [model.mul(shift, g) for g in f_set], cur):
            return None
    return cur if shift == model.unit else None


def eager_sc_probe(terms, f_chain, model, n):
    """``fock.sc_limit_probe`` the eager way.  Every point of the guard band
    is flagged with ``frame_flag`` for every frame, the diagonal is read off
    ``graded_sum``, and each norm is the largest absolute diagonal value
    over the flagged points.  Returns ``(frames, enclosures,
    non_increasing, verdict, band)``; raises ``BandExhausted`` when the
    band is negative or a frame flags none of its points."""
    band = n - max((sum(model.length(q) for _, q in v.trace.pairs)
                    for _, v in terms if not v.is_zero), default=0)
    if band < 0:
        raise BandExhausted("negative guard band")
    cols, _ = graded_sum(terms, n)
    points = model.enumerate_p(band)
    frames, norms = [], []
    for f_elems in f_chain:
        f_set = tuple(sorted(set(f_elems), key=model.sort_key))
        flagged = [j for j, r in enumerate(points)
                   if frame_flag(model, f_set, r)]
        if not flagged:
            raise BandExhausted(f"frame {f_set} flags no point of the band")
        frames.append(f_set)
        norms.append(max(abs(cols.get(j, {}).get(j, Fraction(0)))
                         for j in flagged))
    tol = Fraction(1, 10 ** 9)
    if norms[-1] <= tol:
        verdict = "vanishing-evidence"
    elif len(norms) == 1 or norms[-1] >= norms[-2]:
        verdict = "non-vanishing-evidence"
    else:
        verdict = "inconclusive"
    non_increasing = all(b <= a for a, b in zip(norms, norms[1:]))
    return (tuple(frames), tuple((x, x) for x in norms), non_increasing,
            verdict, band)


def product_projection_identity(lattice, n):
    """``fock.check_projection_identity`` by the product route: each
    nonempty ideal's mask multiplied by each one's with ``mul_op``, and the
    product compared with the mask of the meet the lattice's ``meet`` rows
    name by ``equal_on_band``.  Returns ``(pairs checked, whether all
    agree)``."""
    masks = [projection_op(x, n) for x in lattice.ideals]
    meet = lattice.meet
    idxs = lattice.nonempty_indices()
    ok = all(equal_on_band(mul_op(masks[i], masks[j]), masks[meet[i][j]])
             for i in idxs for j in idxs)
    return len(idxs) ** 2, ok


def basis_scan_columns(model, grading, dom, n):
    """Columns of the partial shift s -> grading*s on the ideal of the
    domain token ``dom``, by scanning the whole length-<= n basis: column j
    holds {index[g*s]: 1} iff contains(model, dom, s) and g*s lies inside
    the truncation, else {}."""
    basis = model.enumerate_p(n)
    index = {s: k for k, s in enumerate(basis)}
    cols = []
    for s in basis:
        col = {}
        if contains(model, dom, s):
            t = model.mul(grading, s)
            if t in index:
                col[index[t]] = 1
        cols.append(col)
    return cols


def graded_sum(terms, n):
    """A rational combination of words as one sparse matrix, with its guard
    band: ``(cols, band)``, where ``cols`` maps a column to its nonzero
    entries ``{row: value}``.  Each word's columns come from
    ``basis_scan_columns``, whose entries are all 1, so the word adds its
    coefficient at each of them; zero entries and columns are dropped.  The
    band is ``n`` minus the largest reach of a word with a nonzero
    coefficient."""
    model = terms[0][1].model
    basis = model.enumerate_p(n)
    sums = [{} for _ in basis]
    reach = 0
    for c, v in terms:
        if v.is_zero or c == 0:
            continue
        reach = max(reach, sum(model.length(q) for _, q in v.trace.pairs))
        c = Fraction(c)
        for acc, col in zip(sums, basis_scan_columns(model, v.grading, v.dom, n)):
            for i in col:
                acc[i] = acc[i] + c if i in acc else c
    cols = {}
    for j, acc in enumerate(sums):
        acc = {i: x for i, x in acc.items() if x != 0}
        if acc:
            cols[j] = acc
    return cols, n - reach


def diagonal_part(op):
    """Compression of a matrix to its diagonal: its fixed columns, with the
    matrix's band and reach 0."""
    fixed = {j: j for j, i in op.cols.items() if i == j}
    return TruncOp(op.model, op.n, fixed, op.band, 0)


def diagonal_expectation(terms):
    """The diagonal expectation of a word combination by the grading
    filter: the coefficients of the unit-graded terms ``(c, v, op)``, with
    ``op`` the matrix of the word v, summed as Fractions over every column
    of their matrices.  Returns ``{column: nonzero coefficient}``."""
    sums = {}
    for c, v, op in terms:
        if not v.is_zero and v.grading == v.model.unit:
            for j in op.cols:
                sums[j] = sums.get(j, 0) + Fraction(c)
    return {j: x for j, x in sums.items() if x}


def entrywise_equal_on_band(a, b):
    """``fock.equal_on_band`` one column at a time: the two maps agree at
    every column of either inside both bands (the first ``width`` basis
    positions, as bases are sorted length first)."""
    band = min(a.band, b.band)
    width = len(a.model.enumerate_p(band)) if band >= 0 else 0
    return all(a.cols.get(j) == b.cols.get(j)
               for j in a.cols.keys() | b.cols.keys() if j < width)


def membership_sieve(gens):
    """Numerical-semigroup membership by a sieve over every integer up to
    Schur's bound (g0 - 1)(gmax - 1) + gmax, one ``any`` over the
    generators per entry, and the conductor as the start of the first run
    of g0 members: ``(table, conductor)``."""
    g0 = min(gens)
    bound = max((g0 - 1) * (max(gens) - 1) + max(gens), g0 + 1)
    table = [False] * (bound + 1)
    table[0] = True
    for n in range(1, bound + 1):
        table[n] = any(n >= g and table[n - g] for g in gens)
    run = 0
    for n in range(bound + 1):
        run = run + 1 if table[n] else 0
        if run >= g0:
            return table, n - g0 + 1


def _scan_bound(model, toks):
    """One residue class period past the largest Apery entry of the
    nonempty numerical tokens ``toks``: every class's ray starts below it,
    and from there on each token holds every point of every class."""
    return max(max(t) for t in toks if t != EMPTY) + model.gens[0]


def scan_subset(model, tok, other):
    """Numerical-token inclusion by testing every member of ``tok`` below
    the scan bound."""
    if tok == EMPTY:
        return True
    if other == EMPTY:
        return False
    return all(contains(model, other, m)
               for m in range(_scan_bound(model, (tok, other)))
               if contains(model, tok, m))


def scan_union_covers(model, tok, others):
    """Numerical-token cover by testing every member of ``tok`` below the
    scan bound against each of ``others``."""
    if tok == EMPTY:
        return True
    others = [o for o in others if o != EMPTY]
    if not others:
        return False
    return all(any(contains(model, o, m) for o in others)
               for m in range(_scan_bound(model, [tok, *others]))
               if contains(model, tok, m))


def least_per_class(model, points):
    """The least of ``points`` in each residue class mod g0."""
    least = [None] * model.gens[0]
    for x in points:
        r = x % model.gens[0]
        if least[r] is None or x < least[r]:
            least[r] = x
    return tuple(least)


def scan_intersect(model, tok, other):
    """Numerical-token intersection: the least common member of each
    residue class, from a scan of every point below the scan bound."""
    if EMPTY in (tok, other):
        return EMPTY
    return least_per_class(model, (
        m for m in range(_scan_bound(model, (tok, other)))
        if contains(model, tok, m) and contains(model, other, m)))


def scan_left_mul(model, p, tok):
    """Numerical-token translate p + I, from the members of ``tok`` below
    the scan bound, each moved by p."""
    if tok == EMPTY:
        return EMPTY
    return least_per_class(model, (
        m + p for m in range(_scan_bound(model, (tok,)))
        if contains(model, tok, m)))


def scan_preimage(model, p, tok):
    """Numerical-token preimage, the x of P with x + p in I, from a scan
    of the points below the scan bound of ``tok`` and P's own token."""
    if tok == EMPTY:
        return EMPTY
    return least_per_class(model, (
        x for x in range(_scan_bound(model, (tok, model.exact_full())))
        if model.in_p(x) and contains(model, tok, x + p)))


def num_token_text(model, tok):
    """The report text of a numerical token in its sporadic-and-tail form,
    ("num", members below the tail, tail), the tail starting the first run
    of g0 members; found by scanning points, not from the token's
    entries."""
    if tok == EMPTY:
        return repr(tok)
    g0, run, m = model.gens[0], 0, 0
    while run < g0:
        run = run + 1 if contains(model, tok, m) else 0
        m += 1
    tail = m - g0
    return repr(("num", tuple(x for x in range(tail)
                              if contains(model, tok, x)), tail))


def theta_law_counts(ctx):
    """The composition law theta_g1(theta_g2(chi)) == theta_g1g2(chi), one
    ``theta_apply`` instance at a time over every pair of gradings and
    every character: ``(checked, failures, skipped_at_fragment_edge)``.  A
    triple is skipped when theta_g2(chi) is ambiguous, or is an image but
    one side of the law is not."""
    model = ctx.model
    checked = ambiguous = failures = 0
    gradings = ctx.gradings()
    for g2 in gradings:
        for g1 in gradings:
            g12 = model.mul(g1, g2)
            for chi in range(ctx.fragment.size()):
                r2 = theta_apply(ctx, g2, chi)
                if r2.status != "image":
                    ambiguous += r2.status == "ambiguous"
                    continue
                r1 = theta_apply(ctx, g1, r2.image)
                r12 = theta_apply(ctx, g12, chi)
                if r1.status == "image" and r12.status == "image":
                    checked += 1
                    if r1.image != r12.image:
                        failures += 1
                else:
                    ambiguous += 1
    return checked, failures, ambiguous


def plain_grading(model, trace):
    """p1^-1 q1 ... pn^-1 qn folded from the unit one inverse and two
    products per pair, with no factor cache."""
    g = model.unit
    for p, q in trace.pairs:
        g = model.mul(model.mul(g, model.inv(p)), q)
    return g


def boundary_event_count(ctx):
    """The boundary's ``unresolved_instances`` from ``invariant_closure``
    alone: the events of the maximal filters' closure plus those of every
    singleton's closure."""
    chars = range(ctx.fragment.size())
    return (len(invariant_closure(ctx, maximal_filters(ctx.fragment)).events)
            + sum(len(invariant_closure(ctx, [c]).events) for c in chars))


def exhaustive_vwords(model, max_trace_len, gen_len=None, cap=200):
    """The word family by a walk that evaluates every trace, breadth first,
    pairs in order: ``(members, zero, by_grading, duplicates)`` as
    ``enumerate_vwords`` defines the first three.  ``duplicates`` lists
    ``(member_index, WordTrace)`` for the first ``cap`` nonzero traces
    whose word an earlier trace already reached."""
    gen_len = model.default_gen_len if gen_len is None else gen_len
    cand = model.enumerate_p(gen_len)
    pairs = [(p, q) for p in cand for q in cand]
    members, keys, duplicates, by_grading = [], {}, [], {}
    zero = None

    def visit(trace_pairs):
        nonlocal zero
        v = make_vword(model, WordTrace(trace_pairs))
        key = v.dedup_key()
        if key == ("zero",):
            if zero is None:
                zero = v
            return
        got = keys.get(key)
        if got is not None:
            if len(duplicates) < cap:
                duplicates.append((got, WordTrace(trace_pairs)))
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
    return members, zero, by_grading, duplicates


# ---------------------------------------------------------------------------
# Builders, not oracles: these make test inputs through the package's own
# calculus (``WordTrace.make`` and ``from_trace``), so they validate raw
# elements as the package's entry points do.

def left_mul(p, x):
    """The ideal p*x: x's trace extended by the pair (e, p); the empty
    ideal stays empty."""
    return _extend(x, (x.model.unit, p))


def preimage(p, x):
    """The pullback {y in P : p*y in x}: x's trace extended by (p, e); the
    empty ideal stays empty."""
    return _extend(x, (p, x.model.unit))


def _extend(x, pair):
    if x.trace is None:
        return x
    model = x.model
    return from_trace(model, WordTrace.make(model, [pair] + list(x.trace.pairs)))


def divide(model, p, y):
    """The x in P with p*x == y, or None; unique because P embeds in a
    group.  Raises ModelError unless p and y are in P."""
    if not (model.in_p(p) and model.in_p(y)):
        raise ModelError("divide expects submonoid elements")
    x = model.mul(model.inv(p), y)
    return x if model.in_p(x) else None


# ---------------------------------------------------------------------------
# Token readings: the package lists an ideal's members and never tests one
# point for membership, so these tests do it here.

def contains(model, tok, a):
    """Whether the ideal of the exact token ``tok`` holds the element a.
    A free-monoid token names the common prefix of its members, a
    numerical one the least member of each residue class mod g0, and a
    free-abelian one's members are the points of N^k at or above its
    corner."""
    if tok == EMPTY:
        return False
    if model.family == "free_monoid":
        return model.in_p(a) and a.startswith(tok[1])
    if model.family == "numerical":
        return a >= tok[a % model.gens[0]]
    return all(x >= max(c, 0) for x, c in zip(a, tok[1]))


def ideal_eq(x, y):
    """Equality of ideals: exact tokens are canonical."""
    if x.model is not y.model:
        raise ModelError("ideal_eq expects ideals over the same model")
    return x.exact == y.exact


# ---------------------------------------------------------------------------
# One monoid, three kernels: N inside Z is numerical <1>, free_abelian rank 1
# and free_monoid rank 1, each with its own tokens and exact_* kernels.

# where a report holds elements: key -> how deep in lists they sit
_ELEMENT_DEPTHS = {"grading": 0, "gradings": 1, "members_prefix": 1,
                   "pair": 1, "trace": 2, "frames": 2}


def _n_element(x):
    """An element of Z as an int, from any of its three renderings: n,
    [n], or a^n, with A^n read as -n and the unit "" as 0."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, list) and len(x) == 1:
        return _n_element(x[0])
    if isinstance(x, str) and x == "a" * len(x):
        return len(x)
    if isinstance(x, str) and x == "A" * len(x):
        return -len(x)
    raise ValueError(f"not a rendered element of Z: {x!r}")


def normalized_n_body(body):
    """The stable body (JSON text) of a run on a model of N, with every
    element mapped by ``_n_element``, every token string (``exact``) and
    model config (``model``) blanked; caps and counts (``params``) are
    kept as they are.  Returns JSON text."""
    def elements(x, depth):
        if x is None:
            return None
        if depth == 0:
            return _n_element(x)
        return [elements(y, depth - 1) for y in x]

    def walk(o):
        if isinstance(o, list):
            return [walk(v) for v in o]
        if not isinstance(o, dict):
            return o
        out = {}
        for k, v in o.items():
            if k in ("exact", "model"):
                out[k] = ""
            elif k == "params":
                out[k] = v
            elif k in _ELEMENT_DEPTHS:
                out[k] = elements(v, _ELEMENT_DEPTHS[k])
            elif k == "orbit_edges":
                out[k] = [[src, _n_element(g), dst] for src, g, dst in v]
            else:
                out[k] = walk(v)
        return out

    return json.dumps(walk(json.loads(body)), sort_keys=True, indent=1)


def reference_meet(lattice):
    """Meet rows, entry [i][j] the index of the token of ideal i n ideal j
    from the model's intersection, computed for every ordered pair."""
    model, ideals = lattice.model, lattice.ideals
    index = {x.exact: k for k, x in enumerate(ideals)}
    return tuple(tuple(index[model.exact_intersect(x.exact, y.exact)]
                       for y in ideals) for x in ideals)


def reference_up(meet):
    """Per ideal i, the bitmask of the j whose meet with i is i."""
    n = len(meet)
    return tuple(sum(1 << j for j in range(n) if meet[i][j] == i)
                 for i in range(n))


def transpose_masks(masks):
    """The bit matrix transposed: bit i of mask j iff bit j of mask i."""
    n = len(masks)
    return tuple(sum(1 << i for i in range(n) if masks[i] >> j & 1)
                 for j in range(n))


def reference_hasse(up):
    """Covering pairs (i, j), ascending, testing every (i, k) and (i, j)
    bit: the ideals strictly above i minus those strictly above one of
    them."""
    n = len(up)
    strict = [m & ~(1 << i) for i, m in enumerate(up)]
    edges = []
    for i in range(n):
        covers = strict[i]
        for k in range(n):
            if strict[i] >> k & 1:
                covers &= ~strict[k]
        edges.extend((i, j) for j in range(n) if covers >> j & 1)
    return tuple(edges)


def reference_independence(lattice):
    """``ideals.independence_test`` with each ideal's strictly smaller
    members found by scanning every nonempty ideal's up mask."""
    model = lattice.model
    nonempty = lattice.nonempty_indices()
    for i in nonempty:
        x = lattice.ideals[i]
        proper = [j for j in nonempty if j != i and lattice.up[j] >> i & 1]
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
