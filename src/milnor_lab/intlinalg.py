"""Exact integer matrices, Smith normal form, cokernel presentations.

Everything here runs on Python's arbitrary-precision integers; there is
no floating point in this module.  The Smith reduction uses a fixed
pivot rule (smallest nonzero absolute value, row-major tie-break) so
that U, S, V are reproducible across runs.  The cokernel eliminates unit
pivots on sparse columns first and runs the Smith reduction only on the
block that is left.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class IntMatrix:
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(rows_data) -> "IntMatrix":
        entries = tuple(tuple(int(v) for v in row) for row in rows_data)
        nrows = len(entries)
        ncols = len(entries[0]) if entries else 0
        if any(len(row) != ncols for row in entries):
            raise ValueError("ragged rows")
        return IntMatrix(nrows, ncols, entries)

    def matmul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = []
        for i in range(self.rows):
            row = self.entries[i]
            out.append(tuple(
                sum(row[k] * other.entries[k][j] for k in range(self.cols))
                for j in range(other.cols)
            ))
        return IntMatrix(self.rows, other.cols, tuple(out))

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
    """A = U * S * V with S diagonal, d_1 | d_2 | ... >= 0, U and V unimodular."""

    U: IntMatrix
    S: IntMatrix
    V: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        return self.S.diagonal()


@dataclass(frozen=True)
class CokernelPresentation:
    free_rank: int
    torsion: tuple[int, ...]  # invariant factors > 1, in divisibility order


def determinant(matrix: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    if matrix.rows != matrix.cols:
        raise ValueError("determinant of non-square matrix")
    n = matrix.rows
    if n == 0:
        return 1
    work = [list(row) for row in matrix.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if work[k][k] == 0:
            for i in range(k + 1, n):
                if work[i][k] != 0:
                    work[k], work[i] = work[i], work[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                work[i][j] = (work[i][j] * work[k][k] - work[i][k] * work[k][j]) // prev
            work[i][k] = 0
        prev = work[k][k]
    return sign * work[n - 1][n - 1]


def smith_normal_form(matrix: IntMatrix) -> SmithDecomposition:
    """Diagonalize by unimodular row/column operations, A = U * S * V.

    Pivot rule: among the nonzero entries of the remaining submatrix pick
    the one of smallest absolute value, ties broken row-major.  Row
    operations on S are mirrored by inverse column operations on U,
    column operations by inverse row operations on V, so the product
    U * S * V stays equal to A throughout.
    """
    rows, cols = matrix.rows, matrix.cols
    s = [list(row) for row in matrix.entries]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def row_swap(a, b):
        s[a], s[b] = s[b], s[a]
        for row in u:
            row[a], row[b] = row[b], row[a]

    def row_negate(a):
        s[a] = [-x for x in s[a]]
        for row in u:
            row[a] = -row[a]

    def row_sub(target, source, q):
        # S: row target -= q * row source;  U: col source += q * col target
        st, ss = s[target], s[source]
        for j in range(cols):
            st[j] -= q * ss[j]
        for row in u:
            row[source] += q * row[target]

    def col_swap(a, b):
        for row in s:
            row[a], row[b] = row[b], row[a]
        v[a], v[b] = v[b], v[a]

    def col_sub(target, source, q):
        # S: col target -= q * col source;  V: row source += q * row target
        for row in s:
            row[target] -= q * row[source]
        vt, vs = v[target], v[source]
        for j in range(cols):
            vs[j] += q * vt[j]

    def select_pivot(t):
        best = None
        for i in range(t, rows):
            row = s[i]
            for j in range(t, cols):
                val = row[j]
                if val != 0 and (best is None or abs(val) < best[0]):
                    best = (abs(val), i, j)
        return best

    for t in range(min(rows, cols)):
        while True:
            best = select_pivot(t)
            if best is None:
                break
            _, pi, pj = best
            if pi != t:
                row_swap(t, pi)
            if pj != t:
                col_swap(t, pj)
            if s[t][t] < 0:
                row_negate(t)
            pivot = s[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if s[i][t] != 0:
                    q = s[i][t] // pivot
                    if q:
                        row_sub(i, t, q)
                    if s[i][t] != 0:
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, cols):
                if s[t][j] != 0:
                    q = s[t][j] // pivot
                    if q:
                        col_sub(j, t, q)
                    if s[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            offender = None
            for i in range(t + 1, rows):
                row = s[i]
                for j in range(t + 1, cols):
                    if row[j] % pivot != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_sub(t, offender, -1)  # pull the non-divisible row up, then redo
        if select_pivot(t) is None:
            break

    return SmithDecomposition(
        IntMatrix(rows, rows, tuple(tuple(row) for row in u)),
        IntMatrix(rows, cols, tuple(tuple(row) for row in s)),
        IntMatrix(cols, cols, tuple(tuple(row) for row in v)),
    )


def cokernel(matrix: IntMatrix | SparseColumns) -> CokernelPresentation:
    """Presentation of Z^rows / (column span of the matrix).

    Unit pivots are eliminated first, on sparse columns, in one pass over
    the rows in index order: in a row with a +-1 entry, take the unit
    whose column is shortest, clear that row from the other columns by
    column operations, then drop the pivot row and column, which leaves
    the cokernel unchanged.  The block that is left (rows still live,
    columns still nonzero) goes to ``smith_normal_form``, which reduces
    it exactly whatever the pass missed.
    """
    if isinstance(matrix, IntMatrix):
        matrix = SparseColumns.from_dense(matrix)
    cols = {j: dict(col) for j, col in enumerate(matrix.columns) if col}
    meets: dict[int, set[int]] = {}  # row -> columns with a nonzero in it
    for j, col in cols.items():
        for i in col:
            meets.setdefault(i, set()).add(j)
    live = set(range(matrix.rows))
    for r in sorted(meets):
        units = [j for j in meets[r] if cols[j][r] in (1, -1)]
        if not units:
            continue  # left for the Smith reduction
        c = min(units, key=lambda j: (len(cols[j]), j))
        pivot_col = cols.pop(c)
        unit = pivot_col[r]
        for j in list(meets[r]):
            if j == c:
                continue
            col = cols[j]
            q = col[r] * unit
            for i, v in pivot_col.items():
                w = col.get(i, 0) - q * v
                if w:
                    col[i] = w
                    meets[i].add(j)
                else:
                    del col[i]
                    meets[i].discard(j)
            if not col:
                del cols[j]
        live.discard(r)
        del meets[r]
        for i in pivot_col:
            if i != r:
                meets[i].discard(c)
    order = sorted(live)
    kept = sorted(cols)
    block = IntMatrix(len(order), len(kept), tuple(
        tuple(cols[j].get(i, 0) for j in kept) for i in order
    ))
    diag = smith_normal_form(block).diagonal()
    rank = sum(1 for d in diag if d != 0)
    torsion = tuple(d for d in diag if d > 1)
    return CokernelPresentation(block.rows - rank, torsion)
