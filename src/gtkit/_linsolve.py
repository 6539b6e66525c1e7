"""Exact Gauss-Jordan elimination on integer systems.

Small dense systems only; everything downstream is desk scale (n <= 10).
A caller scales its rational matrix to integers once (`scaled`) and hands the
kernel integer rows; solutions come back as integer numerators over one
common positive denominator.
"""

from __future__ import annotations

import math


def scaled(matrix):
    """``(D, rows)``: the rational matrix times the lcm D > 0 of its entries'
    denominators, as integer rows.

    Entries are ints or rationals with ``numerator`` and ``denominator``.
    Scaling a system by D > 0 changes no `equalizer` solution w, no status
    and no sign of a value row . w.
    """
    scale = math.lcm(*(v.denominator for row in matrix for v in row))
    return scale, [[v.numerator * (scale // v.denominator) for v in row] for row in matrix]


def solve_exact(rows, rhs):
    """Solve ``A x = b`` exactly for integer ``A`` and ``b``.

    Returns ``(status, num, den)`` where status is one of ``"unique"``,
    ``"none"``, ``"many"``.  For ``"unique"`` the solution is
    ``x_i = num[i] / den`` with one den > 0, in lowest terms
    (gcd(den, *num) = 1); for ``"many"`` it is the particular solution with
    every free variable set to 0, in the same form; for ``"none"`` num and
    den are None.

    Elimination is fraction-free Gauss-Jordan in the manner of Bareiss
    (1968): each step combines rows with integer multipliers and divides
    exactly by the previous pivot, so every entry stays a minor of the
    augmented matrix and every pivot row ends with the same pivot, which is
    the common denominator.  The pivot rule (first nonzero entry at or below
    the current row) is that of the textbook rational elimination, and the
    reduced row echelon form is unique, so status and solution are those of
    the rational algorithm.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    # each row reversed, [b, a_(n-1), ..., a_c]: the current column c is popped off the end
    aug = [[b, *reversed(row)] for row, b in zip(rows, rhs)]

    pivot_cols = []
    prev = 1
    r = 0
    for c in range(n):
        for pivot in range(r, m):
            if aug[pivot][-1]:
                break
        else:  # a free column: it leaves every row
            for row in aug:
                row.pop()
            continue
        prow = aug[pivot]
        aug[r], aug[pivot] = prow, aug[r]
        piv = prow.pop()
        for i, row in enumerate(aug):
            if i != r:
                f = row.pop()
                if f:
                    aug[i] = [(piv * a - f * b) // prev for a, b in zip(row, prow)]
                elif piv != prev:
                    aug[i] = [piv * a // prev for a in row]
        prev = piv
        pivot_cols.append(c)
        r += 1
        if r == m:
            break

    if any(row[0] for row in aug[r:]):
        return "none", None, None

    num = [0] * n
    for row, c in zip(aug, pivot_cols):
        num[c] = row[0]
    g = math.gcd(prev, *num)
    if prev < 0:
        g = -g
    num = [v // g for v in num]
    status = "many" if len(pivot_cols) < n else "unique"
    return status, num, prev // g


def equalizer(block):
    """``(status, num, den)`` with ``block . w = v 1`` and ``sum(w) = 1`` for
    an integer block, where ``w = num / den`` and so ``sum(num) = den``.

    The system is the first row minus each other row, plus the normalisation;
    v is the first row times w, ``sum(block[0][j] * num[j]) / den``.  num and
    den are None unless status is "unique".
    """
    first = block[0]
    rows = [[a - b for a, b in zip(first, row)] for row in block[1:]]
    rows.append([1] * len(first))
    status, num, den = solve_exact(rows, [0] * (len(block) - 1) + [1])
    return (status, num, den) if status == "unique" else (status, None, None)
