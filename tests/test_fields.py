import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leavitt.fields import (
    QQ,
    ExtensionField,
    FieldError,
    Poly,
    PrimeField,
    _is_prime,
    _mark_multiples,
    _QuotientRing,
    enumerate_monic_irreducibles,
    format_poly,
    is_irreducible,
    parse_field,
    parse_poly,
    poly_xgcd,
)
from strategies import enumerate_monic

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
GF4 = ExtensionField(F2, parse_poly("t^2+t+1", F2))
QSQRT2 = ExtensionField(QQ, parse_poly("t^2-2", QQ))

ALL_FIELDS = [QQ, F2, F3, GF4, QSQRT2]


class TestFieldOps:
    def test_rational_sum(self):
        assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)

    def test_gf4_tbar_square(self):
        tbar = GF4.tbar()
        assert GF4.mul(tbar, tbar) == GF4.add(tbar, GF4.one())

    def test_tbar_inverse(self):
        # in K[t]/(f) with f(0) != 0, tbar * inv(tbar) = 1
        for K in (GF4, QSQRT2, ExtensionField(QQ, parse_poly("t-3", QQ))):
            tbar = K.tbar()
            assert K.mul(tbar, K.inv(tbar)) == K.one()

    def test_inverse_of_zero(self):
        for K in ALL_FIELDS:
            with pytest.raises(ZeroDivisionError):
                K.inv(K.zero())

    @pytest.mark.parametrize("K", ALL_FIELDS, ids=lambda K: K.name)
    def test_field_axioms_random_triples(self, K):
        rng = random.Random(7)
        for _ in range(100):
            a, b, c = (K.random(rng) for _ in range(3))
            assert K.add(a, K.add(b, c)) == K.add(K.add(a, b), c)
            assert K.mul(a, K.mul(b, c)) == K.mul(K.mul(a, b), c)
            assert K.add(a, b) == K.add(b, a)
            assert K.mul(a, b) == K.mul(b, a)
            assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))
            assert K.add(a, K.neg(a)) == K.zero()
            assert K.mul(a, K.one()) == a
            if not K.is_zero(a):
                assert K.mul(a, K.inv(a)) == K.one()

    def test_pow_matches_builtin_pow(self):
        F101 = PrimeField(101)
        for n in (-5, -1, 0, 1, 2, 3, 7, 64, 1000, 10**9):
            assert F101.pow(5, n) == pow(5, n, 101)

    def test_pow_matches_repeated_products(self):
        for K in (GF4, QSQRT2):
            a, acc = K.add(K.tbar(), K.one()), K.one()
            for n in range(20):
                assert K.pow(a, n) == acc
                assert K.pow(a, -n) == K.inv(acc)
                acc = K.mul(acc, a)

    def test_pow_uses_at_most_n_products(self):
        calls = []
        K = PrimeField(101)
        mul = K.mul
        K.mul = lambda a, b: calls.append(1) or mul(a, b)
        for n in range(1, 200):
            calls.clear()
            K.pow(3, n)
            assert len(calls) <= n

    def test_prime_field_requires_prime(self):
        with pytest.raises(FieldError):
            PrimeField(4)


class TestPolyArithmetic:
    def test_make_coerces_and_trims(self):
        F5 = PrimeField(5)
        assert Poly.make(F5, [7, 5, 0]) == Poly.make(F5, [2])
        assert Poly.make(F5, [7, 5, 0]).coeffs == (2,)

    @pytest.mark.parametrize("K", ALL_FIELDS, ids=lambda K: K.name)
    def test_difference_with_itself_is_zero(self, K):
        rng = random.Random(3)
        for d in range(4):
            f = Poly.make(K, [K.random(rng) for _ in range(d)] + [K.one()])
            assert (f - f).coeffs == ()

    @pytest.mark.parametrize("K", ALL_FIELDS, ids=lambda K: K.name)
    def test_product_of_monic_polynomials(self, K):
        rng = random.Random(5)
        for _ in range(20):
            f, g = (
                Poly.make(K, [K.random(rng) for _ in range(rng.randint(0, 3))] + [K.one()])
                for _ in range(2)
            )
            h = f * g
            assert h.degree == f.degree + g.degree
            assert h.is_monic and not K.is_zero(h.coeffs[-1])


class TestIrreducibility:
    def test_t2t1_over_f2(self):
        assert is_irreducible(parse_poly("t^2+t+1", F2))

    def test_t2_plus_1_over_f2_reducible(self):
        assert not is_irreducible(parse_poly("t^2+1", F2))

    def test_t_is_irreducible_but_excluded_downstream(self):
        t = Poly.t(F2)
        assert is_irreducible(t)
        assert t not in enumerate_monic_irreducibles(2, 3)
        with pytest.raises(FieldError, match="constant term"):
            ExtensionField(F2, t)

    def test_enumerate_f2(self):
        assert [str(f) for f in enumerate_monic_irreducibles(2, 1)] == ["t+1"]
        assert [str(f) for f in enumerate_monic_irreducibles(2, 2)] == ["t+1", "t^2+t+1"]
        deg3 = enumerate_monic_irreducibles(2, 3)
        assert [str(f) for f in deg3] == ["t+1", "t^2+t+1", "t^3+t+1", "t^3+t^2+1"]

    @pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2), (5, 1)])
    def test_count_against_brute_force_factoring(self, p, d):
        # Oracle: a monic polynomial of degree d is reducible iff it is a
        # product of two smaller-degree monics; enumerate all such products.
        field = PrimeField(p)
        reducible = set()
        for d1 in range(1, d):
            d2 = d - d1
            if d2 < 1:
                continue
            for g in enumerate_monic(field, d1):
                for h in enumerate_monic(field, d2):
                    reducible.add((g * h).coeffs)
        total = p ** d
        expected = total - len(reducible)
        got = sum(1 for f in enumerate_monic(field, d) if is_irreducible(f))
        assert got == expected

    def test_rationals_small_degree(self):
        assert is_irreducible(parse_poly("t^2-2", QQ))
        assert not is_irreducible(parse_poly("t^2-1", QQ))
        assert not is_irreducible(parse_poly("t^3+t^2-2", QQ))  # root t=1
        assert is_irreducible(parse_poly("t^3-2", QQ))

    def test_rationals_high_degree_needs_assertion(self):
        f = parse_poly("t^4+1", QQ)
        with pytest.raises(FieldError):
            is_irreducible(f)


def _mobius(n: int) -> int:
    out, m, q = 1, n, 2
    while q * q <= m:
        if m % q == 0:
            m //= q
            if m % q == 0:
                return 0
            out = -out
        q += 1
    return -out if m > 1 else out


def gauss_count(p: int, d: int) -> int:
    """N_p(d) = (1/d) sum_{e | d} mu(d/e) p^e monic irreducibles of degree d."""
    return sum(_mobius(d // e) * p**e for e in range(1, d + 1) if d % e == 0) // d


def _is_prime_by_trial_division(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _irreducible_by_trial_division(f: Poly) -> bool:
    """Over GF(p): no monic polynomial of degree at most deg(f)/2 divides f."""
    F = f.field
    for d in range(1, f.degree // 2 + 1):
        for g in enumerate_monic(F, d):
            if (f % g).is_zero:
                return False
    return True


def _trial_division_irreducibles(p: int, d_max: int) -> list[Poly]:
    field = PrimeField(p)
    t = Poly.t(field)
    return [
        f
        for d in range(1, d_max + 1)
        for f in enumerate_monic(field, d)
        if f != t and _irreducible_by_trial_division(f)
    ]


def _sieve_agrees(p: int, d_max: int) -> bool:
    """The sieve against trial division and against Gauss's count."""
    got = enumerate_monic_irreducibles(p, d_max)
    by_degree = [sum(1 for f in got if f.degree == d) for d in range(1, d_max + 1)]
    gauss = [gauss_count(p, d) - (d == 1) for d in range(1, d_max + 1)]
    return got == _trial_division_irreducibles(p, d_max) and by_degree == gauss


class TestRabinAndMillerRabin:
    """Rabin's irreducibility test and Miller-Rabin against the trial
    divisions they replaced."""

    @pytest.mark.parametrize("p,d_max", [(2, 6), (3, 4), (5, 4)])
    def test_every_monic_up_to_degree(self, p, d_max):
        """From degree 5 on, a reducible f can have no factor of degree
        dividing d/r, as t^5+t^4+1 = (t^2+t+1)(t^3+t+1) over GF(2)."""
        field = PrimeField(p)
        for d in range(1, d_max + 1):
            for f in enumerate_monic(field, d):
                assert is_irreducible(f) == _irreducible_by_trial_division(f), str(f)

    def test_primes_below_100000(self):
        assert all(_is_prime(p) == _is_prime_by_trial_division(p) for p in range(100_000))

    def test_strong_pseudoprimes_are_composite(self):
        # strong pseudoprimes to the bases 2..23 and 2..37 respectively
        assert not _is_prime(3_825_123_056_546_413_051)
        assert not _is_prime(318_665_857_834_031_151_167_461)
        assert _is_prime(10**18 + 3)

    def test_past_the_bound_is_an_error(self):
        with pytest.raises(FieldError, match="decided only below 3317044064679887385961981"):
            PrimeField(3_317_044_064_679_887_385_961_981)

    def test_high_degree_and_large_prime_are_fast(self):
        start = time.perf_counter()
        assert is_irreducible(parse_poly("t^41+t^3+1", F2))
        assert not is_irreducible(parse_poly("t^41+t^3+t", F2))
        assert is_irreducible(parse_poly("t^2+1", PrimeField(1_000_000_000_000_000_003)))
        assert time.perf_counter() - start < 1.0

    def test_past_the_cost_bound_is_an_error(self):
        """deg^3 times the products of one p-th power: 1 over F2, 2 over F3."""
        assert not is_irreducible(parse_poly("t^144+t+1", F2))
        for f, F in [("t^145+t+1", F2), ("t^115+t+1", F3)]:
            with pytest.raises(FieldError, match="<= 3000000"):
                is_irreducible(parse_poly(f, F))


class TestIrreducibleSieve:
    @pytest.mark.parametrize("p,d_max", [(2, 4), (3, 4), (5, 4), (2, 6), (7, 3), (2, 8)])
    def test_same_list_as_trial_division(self, p, d_max):
        for d in range(1, d_max + 1):
            assert enumerate_monic_irreducibles(p, d) == _trial_division_irreducibles(p, d)

    def test_gauss_formula_itself(self):
        assert [gauss_count(2, d) for d in range(1, 7)] == [2, 1, 2, 3, 6, 9]
        assert [gauss_count(3, d) for d in range(1, 5)] == [3, 3, 8, 18]

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_counts_per_degree_match_gauss(self, p):
        got = enumerate_monic_irreducibles(p, 6)
        for d in range(1, 7):
            # t is irreducible of degree 1 and excluded
            assert sum(1 for f in got if f.degree == d) == gauss_count(p, d) - (d == 1), d
        assert len({f.coeffs for f in got}) == len(got)

    def test_sieve_that_skips_one_factor_fails(self, monkeypatch):
        """Products with t^2+t+1 go unmarked: t^4+t^2+1 = (t^2+t+1)^2 stays in."""
        skipped = parse_poly("t^2+t+1", F2).coeffs

        def planted(marked, g, m, p):
            if g != skipped:
                _mark_multiples(marked, g, m, p)

        assert _sieve_agrees(2, 5)
        monkeypatch.setattr("leavitt.fields._mark_multiples", planted)
        assert not _sieve_agrees(2, 5)

    def test_counts_per_degree_match_gauss_over_f31(self):
        got = enumerate_monic_irreducibles(31, 3)
        assert [sum(1 for f in got if f.degree == d) for d in (1, 2, 3)] == [gauss_count(31, d) - (d == 1) for d in (1, 2, 3)]

    @given(p=st.sampled_from([2, 3, 5, 7]), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_membership_is_rabins_test(self, p, data):
        """A random monic f is listed iff Rabin's test says irreducible (t aside)."""
        field = PrimeField(p)
        d = data.draw(st.integers(1, 4))
        f = Poly(field, tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d))) + (1,))
        assert (f in enumerate_monic_irreducibles(p, d)) == (is_irreducible(f) and f != Poly.t(field))

    def test_large_field_degree_two(self):
        start = time.perf_counter()
        got = enumerate_monic_irreducibles(101, 2)
        assert time.perf_counter() - start < 1.0
        assert len(got) == 100 + gauss_count(101, 2)


def _evaluate(f: Poly, x):
    """f(x) by Horner's rule."""
    F = f.field
    out = F.zero()
    for c in reversed(f.coeffs):
        out = F.add(F.mul(out, x), c)
    return out


def _rational_root_by_search(f: Poly) -> bool:
    """The rational root theorem with every divisor up to |n| (the former test)."""
    den = 1
    for c in f.coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in f.coeffs]
    if ints[0] == 0:
        return True
    num_divs = [d for d in range(1, abs(ints[0]) + 1) if ints[0] % d == 0]
    den_divs = [d for d in range(1, abs(ints[-1]) + 1) if ints[-1] % d == 0]
    return any(_evaluate(f, Fraction(s * a, b)) == 0 for a in num_divs for b in den_divs for s in (1, -1))


class TestRationalIrreducibility:
    def test_small_quadratics_and_cubics_against_root_search(self):
        r = range(-6, 7)
        polys = [Poly.make(QQ, [c, b, 1]) for b in r for c in r]
        polys += [Poly.make(QQ, [c, b, a, 1]) for a in r for b in r for c in r]
        for f in polys:
            assert is_irreducible(f) == (not _rational_root_by_search(f)), str(f)

    @pytest.mark.parametrize(
        "coeffs",
        [
            (Fraction(-1, 4), 0),
            (Fraction(-2, 9), 0),
            (Fraction(-4, 9), 0),
            (Fraction(-1, 2), Fraction(1, 2)),  # (t+1)(t-1/2)
            (Fraction(1, 3), Fraction(2, 5)),
            (Fraction(-1, 8), 0, 0),
            (Fraction(1, 3), Fraction(1, 2), 0),
            (Fraction(-3, 4), Fraction(-1, 4), Fraction(1, 2)),
        ],
    )
    def test_fractions_against_root_search(self, coeffs):
        f = Poly.make(QQ, [*coeffs, 1])
        assert is_irreducible(f) == (not _rational_root_by_search(f))

    def test_large_constant_term_is_fast(self):
        start = time.perf_counter()
        assert is_irreducible(parse_poly("t^2-100000007", QQ))
        assert not is_irreducible(parse_poly(f"t^2-{100000007**2}", QQ))
        assert is_irreducible(parse_poly("t^3-100000007", QQ))
        assert is_irreducible(parse_poly("t^3-100000000000000000003", QQ))
        assert time.perf_counter() - start < 0.5

    @given(
        root=st.fractions(min_value=-10**9, max_value=10**9, max_denominator=10**4),
        b=st.fractions(min_value=-10**6, max_value=10**6, max_denominator=50),
        c=st.fractions(min_value=-10**6, max_value=10**6, max_denominator=50),
    )
    @settings(max_examples=300, deadline=None)
    def test_cubics_with_a_rational_root_split(self, root, b, c):
        """Roots far past the divisor search's reach, double roots included."""
        linear = Poly.make(QQ, [-root, 1])
        assert not is_irreducible(linear * Poly.make(QQ, [c, b, 1]))
        assert not is_irreducible(linear * linear * Poly.make(QQ, [b, 1]))


class TestPolyText:
    @pytest.mark.parametrize("text", ["t^3+t+1", "t+1", "t^2+t+1", "t^2-2", "2"])
    def test_roundtrip(self, text):
        K = QQ if "-" in text or text == "2" else F2
        assert format_poly(parse_poly(text, K)) == text

    def test_parse_field_specs(self):
        assert parse_field("Q") is QQ or parse_field("Q") == QQ
        assert parse_field("F2") == F2
        K = parse_field("F2[t]/(t^2+t+1)")
        assert isinstance(K, ExtensionField) and K.degree == 2

    @pytest.mark.parametrize("text,value", [("3", 3), ("-3", -3), ("1/3", Fraction(1, 3)), ("-4/6", Fraction(-2, 3))])
    def test_rational_literals(self, text, value):
        assert QQ.parse(text) == value

    @pytest.mark.parametrize("text", ["1e400", "1E2", "0.5", ".5", "+2", " 2", "1_000", "1/0", "1/-2", "inf", ""])
    def test_other_rational_forms_are_refused(self, text):
        with pytest.raises(FieldError):
            QQ.parse(text)

    def test_divmod(self):
        f = parse_poly("t^3+t+1", QQ)
        g = parse_poly("t+2", QQ)
        q, r = f.divmod(g)
        assert q * g + r == f
        assert r.degree < g.degree


# Moduli of degree 1-3 over F2, F3, F5 and Q (Q[t]/(t^2-2) among them).
DIFFERENTIAL_FIELDS = [
    ExtensionField(F, parse_poly(f, F))
    for F, f in [
        (F2, "t+1"), (F2, "t^2+t+1"), (F2, "t^3+t+1"),
        (F3, "t+1"), (F3, "t^2+1"), (F3, "t^3+2*t+1"),
        (F5, "t+2"), (F5, "t^2+2"), (F5, "t^3+t+1"),
        (QQ, "t-3"), (QQ, "t^2-2"), (QQ, "t^3-2"),
    ]
]


# Moduli that are reducible or divisible by t, where only the ring exists.
RINGS = [
    _QuotientRing(F, parse_poly(f, F))
    for F, f in [
        (F2, "t"), (F2, "t^2+t"), (F2, "t^4+1"), (F3, "t^3"), (F3, "t^2+2"),
        (F5, "t^3+t^2"), (QQ, "t^2-1"), (QQ, "t^3+t"),
    ]
]


def _poly(K, a):
    return Poly.make(K.base, a)


def _value(K, p):
    return tuple(p.coeff(i) for i in range(K.degree))


class TestExtensionArithmeticAgainstPoly:
    """The coefficient-tuple arithmetic of K[t]/(f) against Poly, the oracle."""

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_mul_inv_expand(self, seed):
        rng = random.Random(seed)
        K = rng.choice(DIFFERENTIAL_FIELDS)
        a, b = (K.random(rng) for _ in range(2))
        j = rng.randrange(K.degree)
        pa, f = _poly(K, a), K.modulus
        assert K.mul(a, b) == _value(K, (pa * _poly(K, b)) % f)
        assert K.expand(a, j) == _value(K, (pa * Poly.make(K.base, [0] * j + [1])) % f)
        if K.is_zero(a):
            with pytest.raises(ZeroDivisionError):
                K.inv(a)
            return
        g, u = poly_xgcd(pa, f)
        assert g == Poly.one(K.base)
        assert K.inv(a) == _value(K, u % f)
        assert K.mul(a, K.inv(a)) == K.one()

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_ring_on_any_monic_modulus(self, seed):
        """``_QuotientRing``, where Rabin's test runs, on moduli that are
        reducible or divisible by t."""
        rng = random.Random(seed)
        R = rng.choice(RINGS)
        a, b = (R.random(rng) for _ in range(2))
        pa, f, n = _poly(R, a), R.modulus, rng.randrange(40)
        assert R.tbar() == _value(R, Poly.t(R.base) % f)
        assert R.mul(a, b) == _value(R, (pa * _poly(R, b)) % f)
        want = Poly.one(R.base)
        for _ in range(n):
            want = want * pa % f
        assert R.pow(a, n) == _value(R, want)

    def test_field_does_no_polynomial_division(self, monkeypatch):
        """The field's own operations run on the fold table alone.  Building
        a field runs Rabin's gcd step, which divides, so it comes first."""
        cases = [("F2[t]/(t^2+t+1)", "(t)", "(t+1)"), ("F3[t]/(t+1)", "2", "1"), ("Q[t]/(t^2-2)", "(t)", "2")]
        fields = [(parse_field(spec), tbar, square) for spec, tbar, square in cases]

        def refuse(*_):
            raise AssertionError("Poly.divmod called")

        monkeypatch.setattr(Poly, "divmod", refuse)
        for K, tbar, square in fields:
            t = K.tbar()
            assert K.format(t) == tbar and K.parse(tbar) == t and K.coerce(t) == t
            assert K.format(K.parse("(t^2)")) == square and K.format(K.mul(t, t)) == square
            assert K.coerce(3) == K.embed(3) == K.parse("3") == K.mul(K.one(), K.parse("3"))

    @pytest.mark.parametrize("K", DIFFERENTIAL_FIELDS, ids=lambda K: K.name)
    def test_parse_agrees_with_dense_reduction(self, K):
        """``parse`` reduces each term's t^k by ``pow``; the oracle reduces the
        dense polynomial of the literal modulo f."""
        rng = random.Random(K.name)
        for k in range(21):
            j, c = rng.randrange(k + 1), rng.randint(1, 4)
            for inner in [f"t^{k}", f"t^{k}+1", f"{c}*t^{k}-t^{j}+{c}", f"t^{k}-t^{k}", f"t^{k}+t^{k}+t^{j}"]:
                want = _value(K, parse_poly(inner, K.base) % K.modulus)
                assert K.parse(f"({inner})") == want, inner
                assert K.parse(inner) == want, inner

    def test_large_exponent_is_not_listed(self):
        start = time.perf_counter()
        assert GF4.parse("(t^1000000)") == GF4.tbar()  # t^3 = 1 in F4
        assert GF4.parse("t^1000001+t") == GF4.one()  # t^2 + t = 1
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("K", DIFFERENTIAL_FIELDS, ids=lambda K: K.name)
    def test_inverse_of_zero_and_of_one(self, K):
        with pytest.raises(ZeroDivisionError):
            K.inv(K.zero())
        assert K.inv(K.one()) == K.one()
