"""Exact Gauss-Jordan elimination on integer systems.

Small dense systems only; everything downstream is desk scale (n <= 10).
Callers hand the kernel integer rows, read off a game's integer payoff table
(payoffs over one common denominator, kept by `games.StrategicGame` and
`evolution.EvolutionGame`); solutions come back as integer numerators over
one common positive denominator.  `principal_equalizers` walks the
principal blocks of one square matrix, support by support, each bordered
from its parent's determinant and integer adjugate in O(k^2), and yields
exactly what `equalizer` gives on each block; only singular blocks, and
those below one, are eliminated.  This module holds only what `games` and
`evolution` share: the table of minors that support enumeration reads is
built, cached and read in `games` alone, which hands each singular block of
it to `equalizer` to tell "none" from "many".
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


def principal_equalizers(rows):
    """Yield ``(support, (status, num, den))`` for every nonempty support of the
    n x n integer matrix rows, in `itertools.combinations` order by size, where
    the triple is what `equalizer` gives on the principal block ``rows[S][S]``.

    The block's system is the bordered ``B_S = [[0, 1ᵀ], [1, A_SS]]`` times
    ``(-v, w) = e_0``, so a nonsingular B_S has ``w = adj(B_S)[1:, 0] /
    det(B_S)``.  Level by level, S borders its parent P = S[:-1] by the new
    column c and row d of j = S[-1]: from the parent's determinant D and
    integer adjugate Â, ``u = Âc``, ``wᵀ = dᵀÂ``, ``D' = a_jj D - d.u`` and
    ``adj(B_S) = [[(D'Â + u wᵀ) / D, -u], [-wᵀ, D]]``, every division exact:
    O(k²) per support where elimination takes O(k³).  A singular B_S
    (D' = 0), or a support whose parent has no adjugate, goes to `equalizer`,
    which tells "none" from "many", and has no adjugate to hand down.
    """
    n = len(rows)
    columns = list(zip(*rows))
    level = []  # (support, D, Â) of the supports with children, Â None when unknown
    for i in range(n):
        yield (i,), ("unique", [1], 1)
        if i < n - 1:
            level.append(((i,), -1, [[rows[i][i], -1], [-1, 0]]))
    while level:
        children = []
        for parent, D, adj in level:
            for j in range(parent[-1] + 1, n):
                support = parent + (j,)
                last = j == n - 1  # no child of support to border
                if adj is not None:
                    row = rows[j]
                    c = [1, *map(columns[j].__getitem__, parent)]
                    d = [1, *map(row.__getitem__, parent)]
                    # int.__mul__ where operator.mul would do: this kernel imports math alone
                    u = [sum(map(int.__mul__, a, c)) for a in adj]
                    det = row[j] * D - sum(map(int.__mul__, d, u))
                    if det:
                        w = [sum(map(int.__mul__, d, a)) for a in zip(*adj)]
                        num = [(det * a[0] + ui * w[0]) // D for a, ui in zip(adj[1:], u[1:])]
                        num.append(-w[0])
                        g = math.gcd(*num)  # num sums to det, so g > 0
                        if det < 0:
                            g = -g
                        yield support, ("unique", [q // g for q in num], det // g)
                        if not last:
                            bordered = [[(det * a + ui * wl) // D for a, wl in zip(ar, w)] + [-ui]
                                        for ar, ui in zip(adj, u)]
                            bordered.append([-wl for wl in w] + [D])
                            children.append((support, det, bordered))
                        continue
                yield support, equalizer([[rows[i][l] for l in support] for i in support])
                if not last:
                    children.append((support, None, None))
        level = children

