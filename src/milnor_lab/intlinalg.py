"""Exact integer matrices, Smith normal form, cokernel presentations.

Everything here runs on Python's arbitrary-precision integers; there is
no floating point in this module.  The Smith reduction uses a fixed
pivot rule (smallest nonzero absolute value, row-major tie-break) so
that U, S, V are reproducible across runs.  It has one elimination
routine, ``_clear``: row operations reduce the entries below a pivot and
are undone on the columns of a companion matrix.  The row pass runs it
on S with U, the column pass on S^T with V^T.  The cokernel eliminates
unit pivots in one pass over sparse columns, reducing them in place, and
runs the Smith reduction only on the block that is left.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class IntMatrix:
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))


@dataclass(frozen=True)
class SparseColumns:
    """An integer matrix stored column by column as {row: nonzero entry}."""

    rows: int
    columns: tuple[dict[int, int], ...]

    @staticmethod
    def from_dense(matrix: IntMatrix) -> "SparseColumns":
        return SparseColumns(matrix.rows, tuple(
            {i: row[j] for i, row in enumerate(matrix.entries) if row[j]}
            for j in range(matrix.cols)
        ))


@dataclass(frozen=True)
class SmithDecomposition:
    """A = U * S * V with S diagonal, d_1 | d_2 | ... >= 0, U and V unimodular
    (both None when only the diagonal was asked for)."""

    U: IntMatrix | None
    S: IntMatrix
    V: IntMatrix | None

    def diagonal(self) -> tuple[int, ...]:
        return self.S.diagonal()


@dataclass(frozen=True)
class CokernelPresentation:
    free_rank: int
    torsion: tuple[int, ...]  # invariant factors > 1, in divisibility order


def _identity(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


def _transpose(m: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*m)]


def _swap(m, w, a, b, sign=1):
    """Rows a, b of m become sign * row b, row a; the same on the columns of w."""
    m[b], m[a] = m[a], [sign * x for x in m[b]]
    for row in w:
        row[b], row[a] = row[a], sign * row[b]


def _subtract(m, w, i, p, q):
    """Row i of m loses q * row p; column p of w gains q * column i."""
    m[i] = [x - q * y for x, y in zip(m[i], m[p])]
    for row in w:
        row[p] += q * row[i]


def _clear(m, n, w, t):
    """Reduce m[i][t], t < i < n, modulo the pivot m[t][t] > 0 by row operations
    on m, each undone on the columns of w; true if a nonzero remainder is left."""
    left = False
    for i in range(t + 1, n):
        q = m[i][t] // m[t][t]
        if q:
            _subtract(m, w, i, t, q)
        left = left or m[i][t] != 0
    return left


def smith_normal_form(matrix: IntMatrix, companions: bool = True) -> SmithDecomposition:
    """Diagonalize by unimodular row/column operations, A = U * S * V.

    Pivot rule: the smallest nonzero |entry| of the remaining submatrix,
    ties broken row-major, moved to (t, t) and made positive.  A column
    operation on S is a row operation on S^T, undone on the columns of V^T
    (the rows of V), so both passes are ``_clear`` and U * S * V = A holds.
    Without ``companions`` U and V are empty, so no operation touches them,
    and only S is returned: the same S in O(rows * cols) memory.
    """
    rows, cols = matrix.rows, matrix.cols
    s = [list(row) for row in matrix.entries]
    u, v = (_identity(rows), _identity(cols)) if companions else ([], [])
    for t in range(min(rows, cols)):
        while True:
            best = min(((abs(x), i, j) for i in range(t, rows)
                        for j, x in enumerate(s[i][t:], t) if x), default=None)
            if best is None:
                break
            _, i, j = best
            for row in s:  # a column swap of S ...
                row[t], row[j] = row[j], row[t]
            if v:  # ... is a row swap of V
                v[t], v[j] = v[j], v[t]
            _swap(s, u, t, i, 1 if s[i][t] > 0 else -1)
            if _clear(s, rows, u, t):
                continue
            st, vt = _transpose(s), _transpose(v)
            left = _clear(st, cols, vt, t)
            s, v = _transpose(st), _transpose(vt)
            if left:
                continue
            offender = next((i for i in range(t + 1, rows)
                             if any(x % s[t][t] for x in s[i][t + 1:])), None)
            if offender is None:
                break
            _subtract(s, u, t, offender, -1)  # pull the non-divisible row up, then redo
    return SmithDecomposition(
        IntMatrix(rows, rows, tuple(map(tuple, u))) if companions else None,
        IntMatrix(rows, cols, tuple(map(tuple, s))),
        IntMatrix(cols, cols, tuple(map(tuple, v))) if companions else None,
    )


def cokernel(matrix: IntMatrix | SparseColumns) -> CokernelPresentation:
    """Presentation of Z^rows / (column span of the matrix).

    Unit pivots go first, in one pass over the columns: each is cleared in
    place of the rows already pivoted on, oldest pivot first (which never
    brings an older pivot row back), and a +-1 entry left in it makes its
    row the next pivot.  The pivot block is unitriangular, so dropping its
    rows and columns leaves the cokernel unchanged.  The columns left
    without a unit are cleared once more; ``smith_normal_form`` takes them
    on the rows no pivot took, for the diagonal alone.  The columns of a
    ``SparseColumns`` are consumed; an ``IntMatrix`` is not touched.
    """
    if isinstance(matrix, IntMatrix):
        matrix = SparseColumns.from_dense(matrix)
    pivots: dict[int, tuple[dict[int, int], int]] = {}  # row -> (its column, pivots before it)

    def clear(col: dict[int, int]) -> dict[int, int]:
        while hits := [(pivots[r][1], r) for r in col if r in pivots]:
            r = min(hits)[1]
            pivot_col = pivots[r][0]
            q = col[r] * pivot_col[r]
            for i, v in pivot_col.items():
                w = col.get(i, 0) - q * v
                if w:
                    col[i] = w
                else:
                    del col[i]
        return col

    rest = []
    for col in map(clear, matrix.columns):
        r = next((i for i, v in col.items() if v in (1, -1)), None)
        if r is None:
            rest.append(col)
        else:
            pivots[r] = (col, len(pivots))
    rest = [col for col in map(clear, rest) if col]
    live = [i for i in range(matrix.rows) if i not in pivots]
    block = IntMatrix(len(live), len(rest), tuple(
        tuple(col.get(i, 0) for col in rest) for i in live
    ))
    diag = smith_normal_form(block, False).diagonal()
    rank = sum(1 for d in diag if d != 0)
    torsion = tuple(d for d in diag if d > 1)
    return CokernelPresentation(block.rows - rank, torsion)
