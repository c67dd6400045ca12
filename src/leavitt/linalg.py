"""Exact linear algebra over a coefficient field; the one home of sparse
vector arithmetic.

A sparse vector is a ``{key: value}`` dict of nonzero raw field values,
keyed by column indices or module basis elements, and a sparse matrix is
a list of such columns: the one form of library results (``nullspace``'s
basis, the Hom maps and the isotropy generator in ``leavitt.verify``).
``add_term``, ``add_scaled`` and ``linear_extend`` are the only code that
adds such dicts; algebra elements, module actions, certificates and the
elimination here all use them.

There is one exact elimination: ``echelon_step`` reduces one sparse row
against a dict of pivot rows, and ``row_reduce`` brings a stream of sparse
rows to the reduced row echelon form, which is unique, so subspace equality
is a plain comparison.  ``nullspace``, the restriction and the submodule
spin in ``leavitt.verify`` are built on them; the spin stops
``echelon_step`` at its tag columns, which carry each row's coordinates in
the spin vectors.

A dense matrix is a list of rows.  Only ``rref``, ``coordinates``,
``mat_vec`` and ``mat_mul`` work on that form, and no library code calls
them: they are the dense reference that tests compare against, and names
that the benchmark's tracer wraps.
"""

from __future__ import annotations

from collections.abc import Iterable

from .fields import Field


def mat_mul(field: Field, a: list[list], b: list[list]) -> list[list]:
    n, m = len(a), len(b[0]) if b else 0
    out = [[field.zero()] * m for _ in range(n)]
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


def add_term(field: Field, out: dict, key, c) -> None:
    """Add c to the coefficient of key in out, dropping key if the sum is zero."""
    if key in out:
        c = field.add(out[key], c)
    if field.is_zero(c):
        out.pop(key, None)
    else:
        out[key] = c


def add_scaled(field: Field, out: dict, c, vec: dict) -> None:
    """out += c * vec, in place, for a nonzero c; sums that reach zero are
    dropped, and a c equal to one is not multiplied."""
    scale = not field.is_one(c)
    if not (out or scale):
        out.update(vec)  # copies vec's stored key hashes instead of hashing each key again
        return
    for k, x in vec.items():
        if scale:
            x = field.mul(c, x)
        if k in out:
            x = field.add(out[k], x)
            if field.is_zero(x):
                del out[k]
                continue
        out[k] = x


def linear_extend(field: Field, f, vec: dict) -> dict:
    """The linear map that sends each key k to the sparse vector f(k), applied
    to the sparse vector ``vec``; zero images cost no call to ``add_scaled``."""
    out: dict = {}
    for k, c in vec.items():
        image = f(k)
        if image:
            add_scaled(field, out, c, image)
    return out


def echelon_step(field: Field, pivots: dict[int, dict], row: dict, stop: int | None = None) -> int | None:
    """One step of sparse Gaussian elimination.

    ``pivots`` maps each pivot index to its row: a sparse row whose least
    index is that pivot, with value one there.  ``row`` is reduced in place
    at its least index until that index is no pivot; a nonzero remainder is
    scaled to one there, added to ``pivots``, and its pivot index returned.
    A row that reduces to zero returns None.  With ``stop``, the indices
    from ``stop`` on are never pivots: a row whose least index reaches
    ``stop`` also returns None, and is left holding that remainder."""
    while row:
        lead = min(row)
        if stop is not None and lead >= stop:
            return None
        pivot = pivots.get(lead)
        if pivot is None:
            inv = field.inv(row[lead])
            pivots[lead] = {i: field.mul(inv, x) for i, x in row.items()}
            return lead
        add_scaled(field, row, field.neg(row[lead]), pivot)
    return None


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


def row_reduce(field: Field, rows: Iterable[dict]) -> dict[int, dict]:
    """The reduced row echelon form of the span of sparse rows, as {pivot:
    row}: each row is one at its pivot and zero at every other pivot.  The
    form is unique, so two spans are equal iff their forms are.

    Each row is reduced in place by ``echelon_step`` as it arrives, so the
    rows are never held together; back-substitution then clears the pivot
    columns above each pivot."""
    pivots: dict[int, dict] = {}
    for row in rows:
        echelon_step(field, pivots, row)
    # Descending, so each pivot row met in pj is already reduced: it holds
    # its own pivot and free columns only, and subtracting it adds no pivot.
    for j in sorted(pivots, reverse=True):
        pj = pivots[j]
        for k in [i for i in pj if i != j and i in pivots]:
            add_scaled(field, pj, field.neg(pj[k]), pivots[k])
    return pivots


def nullspace(field: Field, rows: Iterable[dict], ncols: int) -> list[dict]:
    """Basis of {v : row . v = 0 for every sparse row}: for each free column
    f < ``ncols`` of ``row_reduce``'s form, in order, the sparse vector one
    at f and minus each pivot row's entry at f at that row's pivot.  So the
    basis depends only on the span of the rows."""
    pivots = row_reduce(field, rows)
    basis = {fc: {fc: field.one()} for fc in range(ncols) if fc not in pivots}
    for pc in sorted(pivots):
        for fc, c in pivots[pc].items():
            v = basis.get(fc)
            if v is not None:
                v[pc] = field.neg(c)
    return list(basis.values())


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
