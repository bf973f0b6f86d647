"""Gauss-Jordan elimination over ``Fraction``, used only by tests as a reference.

These are the row operations the library ran before it moved to
fraction-free elimination on integer rows: every pivot row is divided by
its pivot as soon as it is chosen, and every other row is cleared with
``Fraction`` arithmetic, all on dense rows.  The RREF of a row space is
unique, so the library must return exactly what these return.
``kernel_combinations`` is the dense kernel of a linear map given by the
images of vectors, which the library once used for highest weight vectors.
"""

from fractions import Fraction

ONE = Fraction(1)


def rref_rows(rows, ncols):
    """Gauss-Jordan on a copy of the rows; returns (rows, pivot columns).

    Zero rows sink to the bottom.  Pivot entries are 1 and pivot columns are
    cleared above and below, so the nonzero rows are the canonical RREF basis.
    """
    rows = [list(map(Fraction, r)) for r in rows]
    nrows = len(rows)
    pivots = []
    pr = 0
    for pc in range(ncols):
        pivot_row = None
        for r in range(pr, nrows):
            if rows[r][pc]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        lead = rows[pr][pc]
        if lead != 1:
            inv = ONE / lead
            prow = rows[pr]
            for c in range(pc, ncols):
                if prow[c]:
                    prow[c] *= inv
        prow = rows[pr]
        for r in range(nrows):
            if r != pr and rows[r][pc]:
                f = rows[r][pc]
                rrow = rows[r]
                for c in range(pc, ncols):
                    if prow[c]:
                        rrow[c] -= f * prow[c]
        pivots.append(pc)
        pr += 1
        if pr == nrows:
            break
    return rows, pivots


def reduce(v, rows, pivots):
    """Residue of v after clearing each pivot column, in increasing order.

    Each row leads with a 1 in its pivot column; rows need not be zero in the
    other pivot columns, since clearing column p only touches columns >= p.
    """
    v = list(map(Fraction, v))
    n = len(v)
    for row, pc in zip(rows, pivots):
        c = v[pc]
        if c:
            for j in range(pc, n):
                if row[j]:
                    v[j] -= c * row[j]
    return v


def kernel_combinations(vectors, images):
    """The kernel of the linear map sending vectors[i] to images[i]: one
    combination sum c_i vectors[i] per kernel basis vector c of the images,
    read off the RREF of the matrix whose columns are the images.

    The result is a basis of the kernel when ``vectors`` are independent.
    """
    d = len(vectors)
    rows, pivots = rref_rows(list(zip(*images)), d)
    out = []
    for f in (c for c in range(d) if c not in pivots):
        coeff = [Fraction(0)] * d
        coeff[f] = ONE
        for k, pc in enumerate(pivots):
            coeff[pc] = -rows[k][f]
        out.append([sum((c * v[i] for c, v in zip(coeff, vectors) if c), Fraction(0))
                    for i in range(len(vectors[0]))])
    return out
