"""Exact Gauss-Jordan elimination on integer systems.

Small dense systems only; everything downstream is desk scale (n <= 10).
Callers hand the kernel integer rows, read off a game's integer payoff table
(payoffs over one common denominator, kept by `games.StrategicGame` and
`evolution.EvolutionGame`); solutions come back as integer numerators over
one common positive denominator.  `support_equalizers` reads the equalizer
systems of every equal-size sub-block of one matrix, by Cramer's rule, off
one table of minors filled bottom-up (`bordered_minors`); it returns their
signed numerators as they are, and leaves lowest terms, and the singular
blocks, to its caller (`equalizer` tells "none" from "many").
`principal_equalizers` walks the principal blocks of one square matrix
instead, support by support, each bordered from its parent's determinant
and integer adjugate in O(k^2), and yields exactly what `equalizer` gives on
each block; only singular blocks, and those below one, are eliminated.
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


def support_equalizers(rows, layout):
    """The equalizer systems of every equal-size sub-block ``rows[own][opp]``
    of one integer matrix, as ``{own: {opp: num}}`` over the sorted index
    tuples own and opp.

    ``num`` is a tuple of the signed Cramer numerators of the block's system,
    one per column of ``opp``, and ``den = sum(num)``.  `equalizer` on the
    block is "unique" exactly when den is nonzero, and then its weights are
    ``num[b] / den``: not in lowest terms, and den may be negative.  A block
    with den 0 has no unique solution, and `equalizer` decides between
    "none" and "many".

    Cramer's rule on the bordered system ``[[block, 1], [1ᵀ, 0]]``: the
    weight on the b-th of k columns is ``(-1)^(k-1-b) det[block without
    column b | 1]``, and the common denominator ``-det [[block, 1], [1ᵀ, 0]]``
    is, expanded along its ones row, the sum of those weights.  Each such
    determinant is a minor of ``[rows | 1]``, read from `bordered_minors`.
    ``layout`` is ``minor_layout(m, n)`` for the m x n matrix rows.
    """
    width = 1 << (len(rows[0]) + 1)
    table = bordered_minors(rows, layout)
    blocks = {}
    for row_sets, opps, negated, keys in layout[1]:
        k = len(opps[0])
        for own, base in row_sets:
            signed = table[base:base + width]  # the row set's minors, then some negated
            signed += [-signed[c] for c in negated]
            # k numerators per opp, in the order of opps
            blocks[own] = dict(zip(opps, zip(*[map(signed.__getitem__, keys)] * k)))
    return blocks


def bordered_minors(rows, layout):
    """The minors of ``[rows | 1]`` that the Cramer numerators of the
    equal-size blocks of rows need, in one flat list.

    For an m x n integer matrix, the minor on the rows of bitmask rmask and
    the equally many columns of bitmask cmask (column n is the ones column)
    is at ``rmask << (n + 1) | cmask``.  The table is filled level by level,
    up to size min(m, n): each k-minor is expanded along its lowest row, a
    sum of k products with (k-1)-minors, so every value is an exact int.  It
    holds every minor with the ones column, and every minor that a larger
    one expands into: those without it on row sets without row 0, below the
    top size.  Every other entry is 0.  ``layout`` is ``minor_layout(m, n)``.
    """
    m, n = len(rows), len(rows[0])
    shift = n + 1
    width = 1 << shift
    table = [0] * (1 << (m + shift))
    for i, row in enumerate(rows):
        base = 1 << i << shift
        table[base | 1 << n] = 1
        for j, a in enumerate(row):
            table[base | 1 << j] = a
    for level in layout[0]:
        for rmask, expansions in level:
            low = rmask & -rmask
            row = [*rows[low.bit_length() - 1], 1]
            row += [-a for a in row]
            rest = (rmask ^ low) << shift
            minors = table[rest:rest + width]
            base = rmask << shift
            for cmask, terms in expansions:
                table[base | cmask] = sum([row[c] * minors[sub] for c, sub in terms])
    return table


def minor_layout(m, n):
    """``(fills, reads)``: what `bordered_minors` and `support_equalizers` do
    for an m x n matrix, bitmask bookkeeping that depends on the shape alone,
    so that a caller solving many matrices of one shape can keep it.

    ``fills``: per level k = 2..min(m, n), the ``(rmask, expansions)`` to
    fill, where each expansion ``(cmask, terms)`` is one k-minor's
    lowest-row expansion: per column, its index into the row followed by
    its negation (every other column negated), and the column mask of the
    (k-1)-minor that it multiplies.

    ``reads``: per k = 1..min(m, n), ``(row_sets, opps, negated, keys)``:
    the k-subsets own of the rows with their table offsets, the k-subsets
    opp of the columns, the column masks whose minors some numerator
    negates, and per opp and column, the index of its numerator in a row
    set's ``width`` minors followed by those negated ones.
    """
    top = min(m, n)
    shift = n + 1
    width = 1 << shift
    ones = 1 << n
    rmasks = _masks_by_size(m, top)
    cmasks = _masks_by_size(shift, top)
    fills = []
    for k in range(2, top + 1):
        every, with_ones = [], []
        for cmask in cmasks[k]:
            terms = [(c + (shift if b & 1 else 0), cmask ^ 1 << c)
                     for b, c in enumerate(_members(cmask))]
            every.append((cmask, terms))
            if cmask & ones:
                with_ones.append(every[-1])
        # a row set with row 0, or of the top size, is never expanded into
        fills.append([(rmask, with_ones if rmask & 1 or k == top else every)
                      for rmask in rmasks[k]])
    reads = []
    for k in range(1, top + 1):
        row_sets = [(_members(rmask), rmask << shift) for rmask in rmasks[k]]
        opps, minors = [], []
        for cmask in cmasks[k]:
            if cmask < ones:
                opp = _members(cmask)
                opps.append(opp)
                # per column b, its minor's column mask, and whether (-1)^(k-1-b)
                # negates it: at b = k-2, k-4, ...
                minors += [(cmask ^ 1 << j | ones, (k - 1 - b) & 1) for b, j in enumerate(opp)]
        negated = sorted({cmask for cmask, odd in minors if odd})
        keys = [width + negated.index(cmask) if odd else cmask for cmask, odd in minors]
        reads.append((row_sets, opps, negated, keys))
    return fills, reads


def _masks_by_size(width, top):
    """The bitmasks below 1 << width with 0 to top bits set, by their number of
    bits, each list in increasing order."""
    by_size = [[] for _ in range(top + 1)]
    for mask in range(1 << width):
        size = mask.bit_count()
        if size <= top:
            by_size[size].append(mask)
    return by_size


def _members(mask):
    """The sorted tuple of the bit positions set in mask."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
