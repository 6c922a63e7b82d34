"""Exact negative-definite Gram solves over Fraction.

Every matrix solved here is the Gram matrix of a bark segment, a Zariski
support or a set of components to correct against, and each of these
must be negative definite.  One forward elimination without row
exchanges both tests that and solves: its pivots are the ratios of
consecutive leading principal minors, so it runs to completion with
every pivot negative exactly when the matrix is negative definite, and
it stops at the first pivot that is not.  `is_negative_definite` asks
whether it completed; `solve_linear` back-substitutes afterwards and
returns None for a matrix that is not negative definite.  Nothing else
is ever solved, so there is no pivoting.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .errors import InputError

Matrix = Sequence[Sequence[Fraction]]


def _eliminate(matrix: Matrix, rhs: Optional[Sequence[Fraction]] = None
               ) -> Optional[list[list[Fraction]]]:
    """Upper-triangular rows of a symmetric matrix, each with its rhs
    entry appended, or None at the first pivot that is not negative.

    Without an rhs the matrix is eliminated alone.  Raises InputError on a
    matrix that is not square and symmetric, or on a wrong rhs length.
    """
    rows = [[Fraction(x) for x in row] for row in matrix]
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise InputError("matrix must be square")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise InputError("matrix must be symmetric")
    if rhs is not None:
        if len(rhs) != n:
            raise InputError("rhs length does not match matrix size")
        for row, b in zip(rows, rhs):
            row.append(Fraction(b))
    for col in range(n):
        pivot = rows[col][col]
        if pivot >= 0:
            return None
        for r in range(col + 1, n):
            f = rows[r][col]
            if f:
                f /= pivot
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return rows


def is_negative_definite(matrix: Matrix) -> bool:
    """Exact negative-definiteness test for a symmetric matrix."""
    return _eliminate(matrix) is not None


def solve_linear(matrix: Matrix,
                 rhs: Sequence[Fraction]) -> Optional[list[Fraction]]:
    """Solve matrix * x = rhs exactly for a negative definite symmetric
    matrix; None when the matrix is not negative definite."""
    rows = _eliminate(matrix, rhs)
    if rows is None:
        return None
    n = len(rows)
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        row = rows[i]
        x[i] = (row[n] - sum(row[j] * x[j] for j in range(i + 1, n))) / row[i]
    return x
