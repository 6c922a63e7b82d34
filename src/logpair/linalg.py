"""Exact negative-definite Gram solves on integers.

Every matrix solved here is the Gram matrix of a bark segment, a Zariski
support or a set of components to correct against, and each of these
must be negative definite.  One fraction-free (Bareiss) forward
elimination without row exchanges both tests that and solves.  The
matrix and the rhs are first scaled by one common denominator, which
keeps every sign, so from then on every entry is an integer.  The k-th
Bareiss pivot is the leading principal minor Delta_k of that integer
matrix (Delta_0 = 1).  A matrix is negative definite exactly when
consecutive minors alternate in sign, so the elimination stops at the
first k with Delta_k * Delta_(k-1) >= 0: this is the first Gaussian
pivot Delta_k / Delta_(k-1) that is not negative.  `is_negative_definite`
asks whether it completed.  `solve_linear` back-substitutes, still on
integers, to the Cramer numerators y_i = Delta_n * x_i and returns the
Fractions y_i / Delta_n; it returns None for a matrix that is not
negative definite.  Nothing else is ever solved, so there is no
pivoting.

A row that is zero in the pivot column is only multiplied by
Delta_(k+1) / Delta_k at step k.  Such a row is left as it is, with the
step it has reached, and is brought up to date when it is next read,
so a sparse Gram (a long rod) costs O(n^2) rather than O(n^3).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .errors import InputError

Matrix = Sequence[Sequence[Fraction]]


def _integer_rows(matrix: Matrix,
                  rhs: Optional[Sequence[Fraction]]) -> list[list[int]]:
    """The rows, each with its rhs entry appended, times the common
    denominator of every entry.  Raises InputError on a matrix that is
    not square and symmetric, or on a wrong rhs length."""
    rows = [[x if isinstance(x, (int, Fraction)) else Fraction(x)
             for x in row] for row in matrix]
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
            row.append(b if isinstance(b, (int, Fraction)) else Fraction(b))
    # an int is its own numerator over the denominator 1
    den = lcm(*(x.denominator for row in rows for x in row))
    if den == 1:
        return [[x.numerator for x in row] for row in rows]
    return [[x.numerator * (den // x.denominator) for x in row]
            for row in rows]


def _eliminate(matrix: Matrix, rhs: Optional[Sequence[Fraction]] = None
               ) -> Optional[tuple[list[list[int]], int]]:
    """(Bareiss rows, Delta_n), or None at the first k where Delta_k and
    Delta_(k-1) do not have opposite signs.

    Row k is final from step k on: its entry k is Delta_(k+1), and the
    entries before it are stale.  Without an rhs the matrix is
    eliminated alone.
    """
    rows = _integer_rows(matrix, rhs)
    n = len(rows)
    minors = [1]  # minors[k] is Delta_k
    reached = [0] * n  # the elimination steps already applied to a row

    def catch_up(i: int, k: int) -> list[int]:
        row = rows[i]
        if reached[i] != k:
            up, down = minors[k], minors[reached[i]]
            row[k:] = [x * up // down for x in row[k:]]
            reached[i] = k
        return row

    for k in range(n):
        pivot_row = catch_up(k, k)
        pivot, prev = pivot_row[k], minors[k]
        if pivot * prev >= 0:
            return None
        tail = pivot_row[k + 1:]
        for i in range(k + 1, n):
            row = rows[i]
            if row[k]:
                row = catch_up(i, k)
                f = row[k]
                row[k + 1:] = [(pivot * x - f * y) // prev
                               for x, y in zip(row[k + 1:], tail)]
                reached[i] = k + 1
        minors.append(pivot)
    return rows, minors[n]


def is_negative_definite(matrix: Matrix) -> bool:
    """Exact negative-definiteness test for a symmetric matrix."""
    return _eliminate(matrix) is not None


def solve_linear(matrix: Matrix,
                 rhs: Sequence[Fraction]) -> Optional[list[Fraction]]:
    """Solve matrix * x = rhs exactly for a negative definite symmetric
    matrix; None when the matrix is not negative definite."""
    done = _eliminate(matrix, rhs)
    if done is None:
        return None
    rows, det = done
    n = len(rows)
    y = [0] * n
    for i in reversed(range(n)):
        row = rows[i]
        y[i] = (det * row[n] - sum(row[j] * y[j] for j in range(i + 1, n))
                ) // row[i]
    return [Fraction(v, det) for v in y]
