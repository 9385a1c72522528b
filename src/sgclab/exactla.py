"""Exact rational linear algebra: fraction-free rank and certified
spectral enclosures.

Rank uses Bareiss elimination over the integers, so 0/1 membership
matrices never suffer floating-point rank ambiguity; rows are updated
whole, and a row whose update is the identity is skipped.  Operator norms
are bracketed by bisection with Fraction arithmetic: the largest eigenvalue
of the symmetric matrix M^T M is located through matrix inertia
(Sylvester's law via symmetric elimination), then a square root enclosure
is bisected down to the requested width.
"""

from __future__ import annotations

from fractions import Fraction


def bareiss_rank(matrix) -> int:
    """Rank over the rationals of an integer matrix (fraction-free).

    Under pivot p, a row with pivot-column entry f becomes (p*a - f*b) //
    prev, exact since each entry is a minor (Sylvester's identity); when
    f == 0 and p == prev that maps each a to a, so the row is skipped."""
    m = [list(map(int, row)) for row in matrix]
    if not m or not m[0]:
        return 0
    rows, cols = len(m), len(m[0])
    prev = 1
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        p = top[c]
        for i in range(r + 1, rows):
            row = m[i]
            f = row[c]
            if f or p != prev:
                m[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        prev = p
        r += 1
        if r == rows:
            break
    return r


def _eigs_below(sym, t):
    """Number of eigenvalues of the symmetric matrix strictly below t,
    via the inertia of (A - t I); None when a zero pivot blocks the
    elimination (caller perturbs t).

    Row elimination leaves the trailing block equal to the Schur
    complement, which stays symmetric, so the pivot signs carry the
    inertia (Sylvester's law).
    """
    n = len(sym)
    a = [[Fraction(sym[i][j]) - (t if i == j else 0) for j in range(n)]
         for i in range(n)]
    negatives = 0
    for k in range(n):
        pivot = a[k][k]
        if pivot == 0:
            if any(a[i][k] != 0 for i in range(k + 1, n)):
                return None
            continue  # isolated zero: t sits on the spectrum, not below it
        if pivot < 0:
            negatives += 1
        for i in range(k + 1, n):
            if a[i][k] == 0:
                continue
            f = a[i][k] / pivot
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return negatives


def sym_top_eig_enclosure(sym, tol) -> tuple:
    """(lo, hi) Fractions with lo <= lambda_max(sym) <= hi, hi - lo <= tol.

    The matrix must be symmetric with rational entries.
    """
    n = len(sym)
    if n == 0:
        return Fraction(0), Fraction(0)
    tol = Fraction(tol)
    hi = max(sum(abs(Fraction(v)) for v in row) for row in sym)
    lo = max(Fraction(sym[i][i]) for i in range(n))
    if hi < lo:
        hi = lo
    nudge = Fraction(1, 10 ** 12)
    while hi - lo > tol:
        mid = (hi + lo) / 2
        below = _eigs_below(sym, mid)
        if below is None:
            mid += min(nudge, (hi - lo) / 8)
            below = _eigs_below(sym, mid)
            if below is None:
                # mid hit two spectral points; shrink from both ends
                nudge /= 2
                continue
        if below == n:
            hi = mid
        else:
            lo = mid
    return lo, hi


def sqrt_enclosure(x, tol) -> tuple:
    """(lo, hi) Fractions enclosing sqrt(x) to width <= tol, x >= 0."""
    x = Fraction(x)
    tol = Fraction(tol)
    if x < 0:
        raise ValueError("sqrt of a negative rational")
    if x == 0:
        return Fraction(0), Fraction(0)
    hi = max(Fraction(1), x)
    lo = Fraction(0)
    while hi - lo > tol:
        mid = (hi + lo) / 2
        if mid * mid >= x:
            hi = mid
        else:
            lo = mid
    return lo, hi


def operator_norm_enclosure(matrix, tol) -> tuple:
    """Certified enclosure of the largest singular value of a rational
    matrix, to width <= tol."""
    rows = [list(map(Fraction, row)) for row in matrix]
    if not rows or not rows[0]:
        return Fraction(0), Fraction(0)
    ncols = len(rows[0])
    gram = [[sum(rows[k][i] * rows[k][j] for k in range(len(rows)))
             for j in range(ncols)] for i in range(ncols)]
    tol = Fraction(tol)
    lam_lo, lam_hi = sym_top_eig_enclosure(gram, tol * tol / 4 if tol < 2 else tol)
    lo = sqrt_enclosure(lam_lo, tol / 4)[0]
    hi = sqrt_enclosure(lam_hi, tol / 4)[1]
    while hi - lo > tol:
        # tighten the square-root brackets until the width target is met
        lo = sqrt_enclosure(lam_lo, (hi - lo) / 8)[0]
        hi = sqrt_enclosure(lam_hi, (hi - lo) / 8)[1]
    return lo, hi
