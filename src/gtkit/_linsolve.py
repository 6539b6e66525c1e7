"""Exact Gauss-Jordan elimination over the rationals, computed on integers.

Small dense systems only; everything downstream is desk scale (n <= 10).
"""

from __future__ import annotations

import math
from fractions import Fraction


def _integer_row(values):
    """The row scaled by the lcm of its denominators: same solutions, integer entries."""
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values]


def solve_exact(rows, rhs):
    """Solve ``A x = b`` exactly.

    Returns a pair ``(status, solution)`` where status is one of
    ``"unique"``, ``"none"``, ``"many"``.  For ``"unique"`` the solution is a
    list of Fractions; for ``"many"`` it is a particular solution with every
    free variable set to 0; for ``"none"`` it is None.

    Elimination is fraction-free: each row is scaled to integers, combined
    with integer multipliers and divided by the gcd of its entries.  The
    pivot rule (first nonzero entry at or below the current row) is that of
    the textbook rational elimination, and the reduced row echelon form is
    unique, so status and solution are those of the rational algorithm.
    """
    m = len(rows)
    aug = [_integer_row([*row, b]) for row, b in zip(rows, rhs)]
    n = len(aug[0]) - 1 if m else 0

    pivot_cols = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        prow = aug[r]
        piv = prow[c]
        for i in range(m):
            f = aug[i][c]
            if i != r and f != 0:
                row = [piv * a - f * b for a, b in zip(aug[i], prow)]
                g = math.gcd(*row)
                aug[i] = [v // g for v in row] if g > 1 else row
        pivot_cols.append(c)
        r += 1
        if r == m:
            break

    for i in range(r, m):
        if aug[i][n] != 0:
            return "none", None

    x = [Fraction(0)] * n
    for row_i, c in enumerate(pivot_cols):
        x[c] = Fraction(aug[row_i][n], aug[row_i][c])
    if len(pivot_cols) < n:
        return "many", x
    return "unique", x


def equalizer(block):
    """``(status, w, v)`` with ``block . w = v 1`` and ``sum(w) = 1``.

    The system is the first row minus each other row, plus the normalisation,
    and v is the first row times w; w and v are None unless status is "unique".
    """
    first = block[0]
    rows = [[a - b for a, b in zip(first, row)] for row in block[1:]]
    rows.append([1] * len(first))
    status, w = solve_exact(rows, [0] * (len(block) - 1) + [1])
    if status != "unique":
        return status, None, None
    return status, w, sum(a * b for a, b in zip(first, w))
