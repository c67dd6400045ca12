"""The sparse kernel and the sparse elimination in ``leavitt.linalg``
against dense oracles.

``add_scaled`` and ``linear_extend`` are checked against dense vector sums
and ``mat_vec``, with integer keys and with module basis elements as keys.
``row_reduce`` reduces sparse rows one at a time and back-substitutes; its
form is checked against the dense ``rref``, and ``nullspace`` against a
textbook dense Gauss-Jordan elimination.  Each side reads its answer off
the reduced row echelon form, which is unique, so the answers must be
equal entry for entry, not only in number.
"""

import random

import pytest

from leavitt.fields import QQ, ExtensionField, PrimeField, parse_poly
from leavitt.graphs import Graph, lasso
from leavitt.linalg import add_scaled, echelon_step, linear_extend, mat_vec, nullspace, row_reduce, rref
from leavitt.reps import ChenSpec, build_module

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


def _dense_columns(F, cols, nrows):
    """The dense matrix (a list of rows) whose columns are the sparse ``cols``."""
    return [[col.get(i, F.zero()) for col in cols] for i in range(nrows)]


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
def test_row_reduce_matches_dense_rref(name):
    F = FIELDS[name]
    rng = random.Random(f"row-reduce-{name}")
    for _ in range(60):
        ncols = rng.randint(1, 7)
        rows = _random_rows(F, rng, rng.randint(0, 9), ncols)
        red, pivots = rref(F, [_to_dense(F, r, ncols) for r in rows])
        form = row_reduce(F, (dict(r) for r in rows))
        assert sorted(form) == pivots
        assert [_to_dense(F, form[p], ncols) for p in pivots] == red
        assert all(not F.is_zero(x) for row in form.values() for x in row.values())


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


def _nonzero(F, rng):
    while True:
        c = _random_value(F, rng)
        if not F.is_zero(c):
            return c


class _NoMul:
    """A field that refuses to multiply: the c = 1 shortcut must not need to."""

    def __init__(self, field):
        self.field = field

    def __getattr__(self, name):
        return getattr(self.field, name)

    def mul(self, a, b):
        raise AssertionError("multiplied by one")


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_linear_extend_matches_dense_product(name):
    F = FIELDS[name]
    rng = random.Random(name)
    for _ in range(20):
        n = rng.randint(1, 6)
        cols = _random_rows(F, rng, n, n)
        vec = _random_rows(F, rng, 1, n)[0]
        want = mat_vec(F, _dense_columns(F, cols, n), _to_dense(F, vec, n))
        got = linear_extend(F, cols.__getitem__, vec)
        assert _to_dense(F, got, n) == want
        assert all(not F.is_zero(x) for x in got.values())


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_add_scaled_matches_dense_sum(name):
    F = FIELDS[name]
    rng = random.Random(f"add-scaled-{name}")
    for _ in range(40):
        n = rng.randint(1, 6)
        out, vec = _random_rows(F, rng, 2, n)
        c = _nonzero(F, rng)
        want = [F.add(x, F.mul(c, y)) for x, y in zip(_to_dense(F, out, n), _to_dense(F, vec, n))]
        add_scaled(F, out, c, vec)
        assert _to_dense(F, out, n) == want
        assert all(not F.is_zero(x) for x in out.values())


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_sums_that_cancel_are_dropped(name):
    F = FIELDS[name]
    rng = random.Random(f"cancel-{name}")
    for _ in range(20):
        n = rng.randint(1, 6)
        vec = _random_rows(F, rng, 1, n)[0]
        c = _nonzero(F, rng)
        out = {k: F.mul(c, x) for k, x in vec.items()}
        add_scaled(F, out, F.neg(c), vec)
        assert out == {}
        # f(0) = -f(1), so the image of {0: 1, 1: 1} cancels to nothing
        images = [vec, {k: F.neg(x) for k, x in vec.items()}]
        assert linear_extend(F, images.__getitem__, {0: F.one(), 1: F.one()}) == {}
    out = {0: F.one(), 1: F.one()}
    add_scaled(F, out, F.one(), {0: F.neg(F.one())})
    assert out == {1: F.one()}  # the key whose sum is zero is gone, the other kept


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_one_is_not_multiplied_and_agrees_with_multiplying(name):
    F = FIELDS[name]
    rng = random.Random(f"one-{name}")
    for _ in range(20):
        n = rng.randint(1, 6)
        out, vec = _random_rows(F, rng, 2, n)
        want = [F.add(x, F.mul(F.one(), y)) for x, y in zip(_to_dense(F, out, n), _to_dense(F, vec, n))]
        add_scaled(_NoMul(F), out, F.one(), vec)
        assert _to_dense(F, out, n) == want
        empty = {}
        add_scaled(_NoMul(F), empty, F.one(), vec)
        assert empty == vec
        cols = _random_rows(F, rng, n, n)
        units = {k: F.one() for k in range(n) if rng.random() < 0.5}
        assert linear_extend(_NoMul(F), cols.__getitem__, units) == linear_extend(F, cols.__getitem__, units)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_basis_elements_as_keys(name):
    """The kernel only hashes and compares keys: relabelling the integer keys
    by module basis elements commutes with it."""
    F = FIELDS[name]
    g = Graph(["v"], [("e", "v", "v"), ("f", "v", "v")])
    module = build_module(g, F, ChenSpec(lasso(g, g.vertex_path("v"), ["e"])))
    basis = module.enumerate_basis(2).elements
    n = len(basis)
    assert n > 3
    relabel = lambda row: {basis[i]: x for i, x in row.items()}
    rng = random.Random(f"keys-{name}")
    for _ in range(20):
        cols = _random_rows(F, rng, n, n)
        vec, out = _random_rows(F, rng, 2, n)
        image = dict(zip(basis, map(relabel, cols)))
        assert linear_extend(F, image.__getitem__, relabel(vec)) == relabel(linear_extend(F, cols.__getitem__, vec))
        c = _nonzero(F, rng)
        keyed = relabel(out)
        add_scaled(F, keyed, c, relabel(vec))
        add_scaled(F, out, c, vec)
        assert keyed == relabel(out)
