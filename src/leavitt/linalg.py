"""Small dense exact linear algebra over a coefficient field.

Matrices are lists of rows of raw field values.  Everything is Gaussian
elimination at desk scale; subspaces are represented by their reduced row
echelon bases, which makes subspace equality a plain comparison.
"""

from __future__ import annotations

from .fields import Field


def zeros(field: Field, rows: int, cols: int) -> list[list]:
    z = field.zero()
    return [[z] * cols for _ in range(rows)]


def identity(field: Field, n: int) -> list[list]:
    out = zeros(field, n, n)
    for i in range(n):
        out[i][i] = field.one()
    return out


def mat_mul(field: Field, a: list[list], b: list[list]) -> list[list]:
    n, m = len(a), len(b[0]) if b else 0
    out = zeros(field, n, m)
    for i in range(n):
        for k, aik in enumerate(a[i]):
            if field.is_zero(aik):
                continue
            for j in range(m):
                out[i][j] = field.add(out[i][j], field.mul(aik, b[k][j]))
    return out


def mat_vec(field: Field, a: list[list], v: list) -> list:
    out = [field.zero()] * len(a)
    for i, row in enumerate(a):
        acc = field.zero()
        for x, y in zip(row, v):
            acc = field.add(acc, field.mul(x, y))
        out[i] = acc
    return out


def rref(field: Field, rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; zero rows dropped.  Returns (rows, pivot columns)."""
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if not field.is_zero(mat[i][c])), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = field.inv(mat[r][c])
        mat[r] = [field.mul(inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and not field.is_zero(mat[i][c]):
                factor = mat[i][c]
                mat[i] = [field.sub(x, field.mul(factor, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def column_space(field: Field, mat: list[list]) -> list[list]:
    """Reduced row echelon basis of the span of the columns of ``mat``."""
    return rref(field, [list(col) for col in zip(*mat)])[0] if mat and mat[0] else []


def nullspace(field: Field, rows: list[list], ncols: int) -> list[list]:
    """Basis of {v : rows @ v = 0}, one vector per free column."""
    red, pivots = rref(field, rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [field.zero()] * ncols
        v[fc] = field.one()
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(red[r][fc])
        basis.append(v)
    return basis


def coordinates(field: Field, basis_rows: list[list], v: list) -> list | None:
    """Coefficients c with sum(c_i * basis_i) = v, or None when v is outside."""
    if not basis_rows:
        return [] if all(field.is_zero(x) for x in v) else None
    aug = [list(col) + [x] for col, x in zip(zip(*basis_rows), v)]
    red, pivots = rref(field, aug)
    k = len(basis_rows)
    if k in pivots:
        return None
    coeffs = [field.zero()] * k
    for r, pc in enumerate(pivots):
        coeffs[pc] = red[r][k]
    return coeffs
