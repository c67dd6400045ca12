"""The sparse elimination in ``leavitt.linalg`` against dense oracles.

``nullspace`` reduces sparse rows one at a time and back-substitutes; the
oracle here is a textbook dense Gauss-Jordan elimination.  Both return the
basis read off the reduced row echelon form, which is unique, so the bases
must be equal entry for entry, not only in number.
"""

import random

import pytest

from leavitt.fields import QQ, ExtensionField, PrimeField, parse_poly
from leavitt.linalg import apply_columns, dense, echelon_step, mat_vec, nullspace

F2, F3 = PrimeField(2), PrimeField(3)
FIELDS = {
    "F2": F2,
    "F3": F3,
    "Q": QQ,
    "F4": ExtensionField(F2, parse_poly("t^2+t+1", F2)),
}


def _random_value(F, rng):
    if isinstance(F, ExtensionField):
        return F.coerce(tuple(rng.randrange(2) for _ in range(F.degree)))
    if F is QQ:
        return QQ.mul(QQ.coerce(rng.randint(-3, 3)), QQ.inv(QQ.coerce(rng.randint(1, 3))))
    return F.coerce(rng.randrange(F.p))


def _random_rows(F, rng, nrows, ncols):
    """Sparse rows with zero rows and combinations of earlier rows mixed in."""
    rows = []
    density = rng.random()
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.15:
            rows.append({})
        elif kind < 0.35 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            c = _random_value(F, rng)
            row = dict(a)
            for i, x in b.items():
                y = F.add(row.get(i, F.zero()), F.mul(c, x))
                if F.is_zero(y):
                    row.pop(i, None)
                else:
                    row[i] = y
            rows.append(row)
        else:
            row = {}
            for i in range(ncols):
                if rng.random() < density:
                    x = _random_value(F, rng)
                    if not F.is_zero(x):
                        row[i] = x
            rows.append(row)
    return rows


def _to_dense(F, row, ncols):
    out = [F.zero()] * ncols
    for i, x in row.items():
        out[i] = x
    return out


def _dense_nullspace(F, rows, ncols):
    """Gauss-Jordan on a list of dense rows, then one basis vector per free column."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(mat)) if not F.is_zero(mat[i][c])), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        inv = F.inv(mat[r][c])
        mat[r] = [F.mul(inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and not F.is_zero(mat[i][c]):
                f = mat[i][c]
                mat[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [F.zero()] * ncols
        v[fc] = F.one()
        for k, pc in enumerate(pivots):
            v[pc] = F.neg(mat[k][fc])
        basis.append(v)
    return basis


def _check(F, rows, ncols):
    expected = _dense_nullspace(F, [_to_dense(F, r, ncols) for r in rows], ncols)
    got = nullspace(F, (dict(r) for r in rows), ncols)
    assert got == expected
    for v in got:  # and every basis vector solves every row
        for r in rows:
            acc = F.zero()
            for i, x in r.items():
                acc = F.add(acc, F.mul(x, v[i]))
            assert F.is_zero(acc)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_random_shapes_match_dense_gauss_jordan(name):
    F = FIELDS[name]
    rng = random.Random(name)
    for _ in range(60):
        ncols = rng.randint(0, 7)
        _check(F, _random_rows(F, rng, rng.randint(0, 9), ncols), ncols)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_edge_shapes(name):
    F = FIELDS[name]
    one = F.one()
    identity_basis = [[one if i == j else F.zero() for i in range(4)] for j in range(4)]
    assert nullspace(F, [], 4) == identity_basis  # no rows at all
    assert nullspace(F, [{}, {}, {}], 4) == identity_basis  # rank 0
    assert nullspace(F, [{i: one} for i in range(4)], 4) == []  # full rank
    assert nullspace(F, [], 0) == []
    _check(F, [{3: one, 0: one}, {0: one, 3: one}, {}], 4)  # a repeated row


def test_echelon_step_keeps_least_index_pivots():
    pivots = {}
    assert echelon_step(F3, pivots, {2: 2, 4: 1}) == 2
    assert pivots == {2: {2: 1, 4: 2}}
    assert echelon_step(F3, pivots, {2: 1, 4: 2}) is None  # a multiple of the pivot row
    row = {2: 1, 3: 1}
    assert echelon_step(F3, pivots, row) == 3
    assert row == {3: 1, 4: 1}  # reduced in place at its least index
    assert echelon_step(F3, pivots, {}) is None


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_apply_columns_matches_dense_product(name):
    F = FIELDS[name]
    rng = random.Random(name)
    for _ in range(20):
        n = rng.randint(1, 6)
        cols = _random_rows(F, rng, n, n)
        vec = _random_rows(F, rng, 1, n)[0]
        want = mat_vec(F, dense(F, cols, n), _to_dense(F, vec, n))
        assert _to_dense(F, apply_columns(F, cols, vec), n) == want
