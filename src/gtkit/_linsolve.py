"""Exact Gauss-Jordan elimination on integer systems.

Small dense systems only; everything downstream is desk scale (n <= 10).
Callers hand the kernel integer rows, read off a game's integer payoff table
(payoffs over one common denominator, kept by `games.StrategicGame` and
`evolution.EvolutionGame`); solutions come back as integer numerators over
one common positive denominator.  `support_equalizers` solves the equalizer
systems of many sub-blocks of one matrix from a shared table of minors and
eliminates only the singular ones.
"""

from __future__ import annotations

import math


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


def support_equalizers(rows):
    """A solver ``(own, opp) -> equalizer(rows[own][opp])`` for the equal-size
    sub-blocks of one integer matrix, with the same ``(status, num, den)``.

    Cramer's rule on the bordered system ``[[block, 1], [1ᵀ, 0]]``: the
    weight on the b-th of k columns is ``(-1)^(k-1-b) det[block without
    column b | 1]``, and the common denominator ``-det [[block, 1], [1ᵀ, 0]]``
    is, expanded along its ones row, the sum of those weights.  Each such
    determinant is a minor of ``[rows | 1]``.  The minors are memoised by
    (row bitmask, column bitmask) and expanded along the lowest row of their
    row set, so the blocks of one matrix share their sub-minors; the table
    is filled only as far as the blocks asked for need it.  A block whose
    denominator is 0 has no unique solution, and `equalizer` on that block
    decides between "none" and "many".
    """
    n = len(rows[0])
    ext = [[*row, 1] for row in rows]  # column n is the ones column
    ones = 1 << n
    shift = n + 1
    memo = {}

    def minor(rmask, cmask):
        key = rmask << shift | cmask
        det = memo.get(key)
        if det is None:
            low = rmask & -rmask
            row = ext[low.bit_length() - 1]
            rest = rmask ^ low
            if not rest:
                det = row[cmask.bit_length() - 1]
            else:
                det = 0
                negate = False
                c = cmask
                while c:
                    bit = c & -c
                    c ^= bit
                    a = row[bit.bit_length() - 1]
                    if a:
                        sub = a * minor(rest, cmask ^ bit)
                        det = det - sub if negate else det + sub
                    negate = not negate
            memo[key] = det
        return det

    def solve(own, opp):
        rmask = 0
        for i in own:
            rmask |= 1 << i
        cmask = ones
        for j in opp:
            cmask |= 1 << j
        num = [minor(rmask, cmask ^ (1 << j)) for j in opp]
        for b in range(len(num) - 2, -1, -2):  # (-1)^(k-1-b) is -1 at b = k-2, k-4, ...
            num[b] = -num[b]
        den = sum(num)
        if not den:
            return equalizer([[rows[i][j] for j in opp] for i in own])
        g = math.gcd(den, *num)
        if den < 0:
            g = -g
        return "unique", [v // g for v in num], den // g

    return solve
