"""Exact coefficient arithmetic.

Three kinds of fields are supported, all with raw hashable values:

* the rationals (values are ``fractions.Fraction``),
* prime fields GF(p) (values are ints in ``range(p)``),
* quotient fields K[t]/(f) for f monic irreducible with f(0) != 0
  (values are coefficient tuples over the base field).

K[t]/(f) has one reduction kernel, a table of t^k mod f, and Rabin's test
runs on it up to ``_RABIN_BOUND``.  ``Poly`` parses, runs the gcd, and is
the tests' oracle; the sieve of irreducibles works on integer positions.
Over Q, irreducibility is decided up to degree 3, a cubic by bisection for
an integer root.  No floating point.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import chain, compress, product
from typing import Iterable

from .records import Frozen


class FieldError(ValueError):
    """Invalid field construction or operation."""


class Field:
    """Common interface: exact operations on raw scalar values."""

    name: str

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def coerce(self, value):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def is_zero(self, a) -> bool:
        return a == self.zero()

    def is_one(self, a) -> bool:
        return a == self.one()

    def pow(self, a, n: int):
        """a^n by square-and-multiply: never more multiplications than |n|."""
        if n < 0:
            return self.pow(self.inv(a), -n)
        out = None
        while n:
            if n & 1:
                out = a if out is None else self.mul(out, a)
            n >>= 1
            if n:
                a = self.mul(a, a)
        return self.one() if out is None else out

    def random(self, rng):
        raise NotImplementedError

    def format(self, a) -> str:
        raise NotImplementedError

    def parse(self, text: str):
        raise NotImplementedError

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, Field) and self.name == getattr(other, "name", None)

    def __hash__(self):
        return hash(self.name)


_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")
_Q_ZERO = Fraction(0)  # a Fraction is immutable, so one zero and one one serve every caller
_Q_ONE = Fraction(1)


class RationalField(Field):
    name = "Q"

    def zero(self):
        return _Q_ZERO

    def one(self):
        return _Q_ONE

    def is_zero(self, a) -> bool:
        return not a  # Fraction.__eq__ first checks the other operand against number ABCs

    def is_one(self, a) -> bool:
        # one() itself is the usual one; Fraction.__eq__ compares with an int
        # before any number-ABC check
        return a is _Q_ONE or a == 1

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise FieldError(f"cannot coerce {value!r} into Q")

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def random(self, rng):
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))

    def format(self, a) -> str:
        try:
            return str(a)
        except ValueError:  # past the interpreter's integer-to-string digit limit
            raise FieldError("a rational is too long to print") from None

    def parse(self, text: str):
        """``[-]n`` or ``[-]n/m`` only: ``Fraction`` would also take an exponent
        such as ``1e10000000`` and build its integer before any check."""
        if not _RATIONAL_RE.fullmatch(text):
            raise FieldError(f"bad rational {text!r}")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"bad rational {text!r}") from exc


QQ = RationalField()


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; a p past the bound is an error, not a guess."""
    if p >= _MR_BOUND:
        raise FieldError(f"primality is decided only below {_MR_BOUND}")
    if p < 2 or p in _MR_BASES:
        return p in _MR_BASES
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1:
            continue
        for _ in range(s):  # is one of a^d, a^(2d), ..., a^(2^(s-1) d) equal to -1?
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


class PrimeField(Field):
    def __init__(self, p: int):
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def coerce(self, value):
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise FieldError(f"denominator divisible by {self.p}")
            return self.mul(value.numerator % self.p, self.inv(value.denominator % self.p))
        raise FieldError(f"cannot coerce {value!r} into {self.name}")

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def random(self, rng):
        return rng.randrange(self.p)

    def format(self, a) -> str:
        return str(a)

    def parse(self, text: str):
        try:
            return int(text) % self.p
        except ValueError as exc:
            raise FieldError(f"bad {self.name} scalar {text!r}") from exc


# ---------------------------------------------------------------------------
# Polynomials over a field

_setattr = object.__setattr__  # how a frozen Poly sets its own fields


class Poly(Frozen):
    """Polynomial in t with coefficients in ``field`` (ascending tuple, trimmed).

    A slots class, not a tuple: a tuple's ``len``, iteration, ``<`` and
    ``3 * p`` (repetition) would be wrong for a polynomial."""

    __slots__ = _compared = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: tuple):
        _setattr(self, "field", field)
        _setattr(self, "coeffs", coeffs)

    @classmethod
    def make(cls, field: Field, coeffs: Iterable) -> "Poly":
        """The checked entry point: coerces each coefficient into the field."""
        return cls._trimmed(field, [field.coerce(c) for c in coeffs])

    @classmethod
    def _trimmed(cls, field: Field, cs: list) -> "Poly":
        """Coefficients already in the field: only trailing zeros are removed."""
        while cs and field.is_zero(cs[-1]):
            cs.pop()
        return cls(field, tuple(cs))

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls(field, (field.one(),))

    @classmethod
    def t(cls, field: Field) -> "Poly":
        return cls(field, (field.zero(), field.one()))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.field.is_one(self.coeffs[-1])

    def coeff(self, i: int):
        return self.coeffs[i] if i < len(self.coeffs) else self.field.zero()

    def __add__(self, other: "Poly") -> "Poly":
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly._trimmed(F, [F.add(self.coeff(i), other.coeff(i)) for i in range(n)])

    def __neg__(self) -> "Poly":
        return Poly._trimmed(self.field, [self.field.neg(c) for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        F = self.field
        if self.is_zero or other.is_zero:
            return Poly.zero(F)
        out = [F.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = F.add(out[i + j], F.mul(a, b))
        return Poly._trimmed(F, out)

    def scale(self, c) -> "Poly":
        F = self.field
        return Poly._trimmed(F, [F.mul(c, a) for a in self.coeffs])

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        rem = list(self.coeffs)
        quo = [F.zero()] * max(0, len(rem) - len(other.coeffs) + 1)
        inv_lead = F.inv(other.coeffs[-1])
        for i in range(len(rem) - len(other.coeffs), -1, -1):
            c = F.mul(rem[i + other.degree], inv_lead)
            quo[i] = c
            if not F.is_zero(c):
                for j, b in enumerate(other.coeffs):
                    rem[i + j] = F.sub(rem[i + j], F.mul(c, b))
        return Poly._trimmed(F, quo), Poly._trimmed(F, rem)

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def __str__(self) -> str:
        return format_poly(self)

    def sort_key(self):
        return (self.degree, self.coeffs)


def poly_xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """(g, u) with u*a = g mod b, g = gcd(a, b) monic (or zero).

    The cofactor v of u*a + v*b = g is not built: no caller reads it.
    """
    F = a.field
    r0, r1 = a, b
    u0, u1 = Poly.one(F), Poly.zero(F)
    while not r1.is_zero:
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
    if r0.is_zero:
        return r0, u0
    lead_inv = F.inv(r0.coeffs[-1])
    return r0.monic(), u0.scale(lead_inv)


def _rational_root_exists(f: Poly) -> bool:
    """Whether the monic cubic f over Q has a rational root (see ``is_irreducible``)."""
    L = math.lcm(*(c.denominator for c in f.coeffs))
    c, b, a = (int(x * L ** (3 - i)) for i, x in enumerate(f.coeffs[:3]))

    def g(s: int) -> int:
        return ((s + a) * s + b) * s + c

    bound = 1 + max(abs(a), abs(b), abs(c))  # Cauchy: every root lies inside
    pieces, near = [(-bound, bound, 1)], []
    disc = a * a - 3 * b  # g' = 3s^2 + 2as + b vanishes at (-a -+ sqrt(disc))/3
    if disc > 0:
        r = math.isqrt(disc)
        lo1, hi1, lo2, hi2 = (-a - r - 1) // 3, -((a + r) // 3), (r - a) // 3, -((a - r - 1) // 3)
        pieces = [(-bound, lo1, 1), (hi1, lo2, -1), (hi2, bound, 1)]
        near = [*range(lo1, hi1 + 1), *range(lo2, hi2 + 1)]  # brackets of the critical points
    return any(g(s) == 0 for s in near) or any(_monotone_root(g, *piece) for piece in pieces)


def _monotone_root(g, lo: int, hi: int, sign: int) -> bool:
    """Whether g(n) = 0 for an integer lo <= n <= hi, sign*g nondecreasing there."""
    while lo <= hi:
        mid = (lo + hi) // 2
        v = sign * g(mid)
        if v == 0:
            return True
        lo, hi = (mid + 1, hi) if v < 0 else (lo, mid - 1)
    return False


def _is_rational_square(q: Fraction) -> bool:
    num, den = q.numerator, q.denominator  # lowest terms, den > 0
    return num >= 0 and math.isqrt(num) ** 2 == num and math.isqrt(den) ** 2 == den


# Rabin's test makes d calls pow(., p) in K[t]/(f), each of bit_length(p) +
# bit_count(p) - 2 products of about d^2 base operations.  This bound on
# their product keeps one test to about a second.
_RABIN_BOUND = 3_000_000


def is_irreducible(f: Poly) -> bool:
    """Exact irreducibility over the coefficient field.

    Over GF(p), Rabin's test (SIAM J. Comput. 9(2), 1980): f of degree d
    is irreducible iff t^(p^d) = t mod f and gcd(t^(p^(d/r)) - t, f) = 1
    for each prime r dividing d.  The powers are taken in ``_QuotientRing``,
    whose cost ``_RABIN_BOUND`` limits.  Over Q: exact only up to degree 3.
    A monic quadratic splits iff its discriminant is the square of a
    rational.  A cubic splits iff it has a rational root: with L the lcm of
    the denominators, L^3 f(s/L) is a monic integer cubic, so its rational
    roots are integers inside the Cauchy bound, found by integer bisection
    on the monotone pieces between its critical points.
    """
    if not f.is_monic or f.degree < 1:
        raise FieldError("irreducibility test expects a monic polynomial of degree >= 1")
    F = f.field
    if isinstance(F, PrimeField):
        d, products = f.degree, F.p.bit_length() + F.p.bit_count() - 2
        if d**3 * products > _RABIN_BOUND:
            raise FieldError(f"Rabin's test over {F.name} runs only while deg^3 * {products} <= {_RABIN_BOUND} (deg {d})")
        ring = _QuotientRing(F, f)
        t = ring.tbar()
        frobenius = [t]  # t^(p^k) mod f, k = 0..d
        for _ in range(d):
            frobenius.append(ring.pow(frobenius[-1], F.p))
        return frobenius[d] == t and all(
            poly_xgcd(ring._unwrap(ring.sub(frobenius[d // r], t)), f)[0] == Poly.one(F)
            for r in range(2, d + 1)
            if d % r == 0 and _is_prime(r)
        )
    if isinstance(F, RationalField):
        if f.degree == 1:
            return True
        if f.degree == 2:
            c, b = f.coeffs[0], f.coeffs[1]
            return not _is_rational_square(b * b - 4 * c)
        if f.degree == 3:
            return not _rational_root_exists(f)
        raise FieldError(f"irreducibility of {f} over Q is decided only up to degree 3")
    raise FieldError(f"irreducibility test not supported over {F.name}")


def enumerate_monic_irreducibles(p: int, d_max: int) -> list[Poly]:
    """All monic irreducibles of degree <= d_max over GF(p), except t, sorted.

    A sieve by position: a monic f = c_0 + ... + c_(d-1) t^(d-1) + t^d sits
    at position c_0 + c_1 p + ... + c_(d-1) p^(d-1) among the p^d monics of
    degree d, so position order is the order of increasing coefficient
    digits, c_0 the fastest.  f is reducible iff f = g*h with g monic
    irreducible of degree k <= d/2 (t included) and h monic of degree d - k.
    Each degree marks every such product in one bytearray and decodes the
    unmarked positions, so the list equals the monics in position order,
    filtered by ``is_irreducible``.  Marking costs sum_k N_p(k) p^(d-k) (k+1)
    integer steps per degree (``_mark_multiples``), against p^d runs of
    Rabin's test.
    """
    if d_max < 1:
        raise FieldError("d_max must be at least 1")
    field = PrimeField(p)
    by_degree: list[list[tuple]] = [[]]  # coefficients of the irreducibles of each degree, t included
    for d in range(1, d_max + 1):
        marked = bytearray(p**d)
        for k in range(1, d // 2 + 1):
            for g in by_degree[k]:
                _mark_multiples(marked, g, d - k, p)
        unmarked = marked.translate(bytes.maketrans(b"\0\1", b"\1\0"))
        # product() runs its last digit fastest, so each tuple is read backwards
        by_degree.append([cs[::-1] + (1,) for cs in compress(product(range(p), repeat=d), unmarked)])
    return [Poly(field, cs) for cs in chain.from_iterable(by_degree) if cs != (0, 1)]


def _mark_multiples(marked: bytearray, g: tuple, m: int, p: int) -> None:
    """Mark the position of g*h for every monic h of degree m.

    h runs as an odometer over its digits h_0, ..., h_(m-1), h_0 the
    fastest, from h = t^m.  Raising digit i by one, or wrapping it from
    p - 1 to 0 (p more copies of g*t^i add zero), adds g*t^i to the
    product: coefficients i..i+k move, and the position moves with them.
    """
    k = len(g) - 1
    d = k + m
    weight = [p**i for i in range(d)]
    coeffs = [0] * m + list(g[:k])  # the low d coefficients of g*t^m
    pos = sum(c * w for c, w in zip(coeffs, weight))
    # for each coefficient n that g*t^i moves: g_j, and the position's move
    # when c_n + g_j stays below p and when it wraps
    steps = [[(i + j, c, c * weight[i + j], (c - p) * weight[i + j]) for j, c in enumerate(g) if c] for i in range(m)]
    digits = [0] * m
    marked[pos] = 1
    while True:
        i = 0
        while i < m:
            for n, c, up, wrap in steps[i]:
                v = coeffs[n] + c
                if v < p:
                    coeffs[n] = v
                    pos += up
                else:
                    coeffs[n] = v - p
                    pos += wrap
            if digits[i] < p - 1:
                digits[i] += 1
                break
            digits[i] = 0
            i += 1
        else:
            return
        marked[pos] = 1


# ---------------------------------------------------------------------------
# Quotient fields K[t]/(f)


class ExtensionField(Field):
    """K[t]/(f) for f monic irreducible with nonzero constant term.

    Values are coefficient tuples of length deg(f) over the base field, so
    the class of t is invertible and the field doubles as K[t,1/t]/(f).
    """

    def __init__(self, base: Field, modulus: Poly):
        if isinstance(base, ExtensionField):
            raise FieldError("towers of extensions are not supported")
        if modulus.field != base:
            raise FieldError("modulus is not over the base field")
        if not modulus.is_monic or modulus.degree < 1:
            raise FieldError("modulus must be monic of degree >= 1")
        if base.is_zero(modulus.coeff(0)):
            raise FieldError("modulus must have nonzero constant term (t is excluded)")
        if not is_irreducible(modulus):
            raise FieldError(f"{modulus} is reducible over {base.name}")
        self._tabulate(base, modulus)

    def _tabulate(self, base: Field, modulus: Poly) -> None:
        """The values and the fold table of K[t]/(f), for any monic f."""
        self.base = base
        self.modulus = modulus
        self.degree = d = modulus.degree
        self.name = f"{base.name}[t]/({format_poly(modulus)})"
        self._zero = (base.zero(),) * d
        self._one = (base.one(),) + self._zero[1:]
        # Row k - d holds t^k mod f for d <= k <= 2d-2, the degrees a product
        # of two values reaches past d-1.  t^d = -(f_0 + ... + f_(d-1) t^(d-1));
        # t^(k+1) is t^k shifted up, its top coefficient folded back by row 0.
        row = [base.neg(c) for c in modulus.coeffs[:d]]
        fold = []
        for _ in range(d - 1):
            fold.append(tuple(row))
            top, row = row[-1], [base.zero()] + row[:-1]
            row = [base.add(r, base.mul(top, c)) for r, c in zip(row, fold[0])]
        self._fold = tuple(fold)

    def _unwrap(self, value: tuple) -> Poly:
        return Poly._trimmed(self.base, list(value))

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def tbar(self):
        """The class of t; for d = 1 that is t mod (t + f_0) = -f_0."""
        if self.degree == 1:
            return (self.base.neg(self.modulus.coeffs[0]),)
        return self._zero[:1] + (self.base.one(),) + self._zero[2:]

    def embed(self, c) -> tuple:
        return (self.base.coerce(c),) + self._zero[1:]

    def coerce(self, value):
        if isinstance(value, tuple) and len(value) == self.degree:
            return tuple(self.base.coerce(c) for c in value)
        return self.embed(value)

    def add(self, a, b):
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.base.neg(x) for x in a)

    def mul(self, a, b):
        """Schoolbook product, then each t^k with k >= d folded back by its
        table row.  Base values are ints (GF(p)) or Fractions (Q), so the
        sums run in Z or Q and ``base.coerce`` maps each coordinate once."""
        d = self.degree
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        out = prod[:d]
        for c, row in zip(prod[d:], self._fold):
            if c:
                for i, r in enumerate(row):
                    out[i] += c * r
        coerce = self.base.coerce
        return tuple(coerce(c) for c in out)

    def inv(self, a):
        """The u of u*a = 1 mod f from ``poly_xgcd``, padded to deg f."""
        a = self._unwrap(a)
        if a.is_zero:
            raise ZeroDivisionError("inverse of zero")
        u = poly_xgcd(a, self.modulus)[1]
        return u.coeffs + self._zero[len(u.coeffs):]

    def expand(self, a, j: int) -> tuple:
        """Base-field coordinates of a*t^j."""
        unit = [self.base.zero()] * self.degree
        unit[j] = self.base.one()
        return self.mul(a, tuple(unit))

    def random(self, rng):
        return tuple(self.base.random(rng) for _ in range(self.degree))

    def format(self, a) -> str:
        p = self._unwrap(a)
        if p.degree <= 0:
            return self.base.format(p.coeff(0))
        return "(" + format_poly(p) + ")"

    def parse(self, text: str):
        """A base-field literal, or a polynomial in t read as its sparse terms;
        each t^k is reduced by ``pow``, so an exponent costs log k products."""
        text = text.strip()
        if text.startswith("(") and text.endswith(")"):
            text = text[1:-1]
        else:
            try:
                return self.embed(self.base.parse(text))
            except FieldError:
                pass
        out, t = self._zero, self.tbar()
        for k, c in _poly_terms(text, self.base).items():
            out = self.add(out, tuple(self.base.mul(c, x) for x in self.pow(t, k)))
        return out


class _QuotientRing(ExtensionField):
    """K[t]/(f) for any monic f, reducible or with f(0) = 0: the field's
    arithmetic without its checks, for Rabin's test (``inv`` needs a unit)."""

    def __init__(self, base: Field, modulus: Poly):
        self._tabulate(base, modulus)


# ---------------------------------------------------------------------------
# Polynomial and field text forms


def format_poly(f: Poly) -> str:
    if f.is_zero:
        return "0"
    F = f.field
    parts = []
    for i in range(f.degree, -1, -1):
        c = f.coeff(i)
        if F.is_zero(c):
            continue
        if i == 0:
            parts.append(F.format(c))
        else:
            tpow = "t" if i == 1 else f"t^{i}"
            if F.is_one(c):
                parts.append(tpow)
            else:
                parts.append(f"{F.format(c)}*{tpow}")
    out = parts[0]
    for p in parts[1:]:
        if p.startswith("-"):
            out += "-" + p[1:]
        else:
            out += "+" + p
    return out


_TERM_RE = re.compile(r"^(?:(?P<coef>[^t]*?)\*?)?(?P<t>t(?:\^(?P<exp>\d+))?)?$")


def parse_poly(text: str, field: Field) -> Poly:
    """Parse forms like ``t^3+t+1`` or ``t^2-2`` over the given field."""
    coeffs = _poly_terms(text, field)
    return Poly.make(field, [coeffs.get(i, field.zero()) for i in range(max(coeffs) + 1)])


def _poly_terms(text: str, field: Field) -> dict[int, object]:
    """The terms of a polynomial literal as sparse {exponent: coefficient},
    like terms collected."""
    s = text.replace(" ", "")
    if not s:
        raise FieldError("empty polynomial")
    # split into signed terms
    terms = []
    buf = ""
    for i, ch in enumerate(s):
        if ch in "+-" and i > 0 and s[i - 1] not in "+-*/^(":
            terms.append(buf)
            buf = ch
        else:
            buf += ch
    terms.append(buf)
    coeffs: dict[int, object] = {}
    for term in terms:
        sign = 1
        body = term
        while body and body[0] in "+-":
            if body[0] == "-":
                sign = -sign
            body = body[1:]
        m = _TERM_RE.match(body)
        if not m or (not m.group("coef") and not m.group("t")):
            raise FieldError(f"bad polynomial term {term!r} in {text!r}")
        if m.group("t"):
            exp = _literal_int(m.group("exp") or "1")
            coef_text = m.group("coef") or "1"
        else:
            exp = 0
            coef_text = m.group("coef")
        c = field.parse(coef_text)
        if sign < 0:
            c = field.neg(c)
        coeffs[exp] = field.add(coeffs.get(exp, field.zero()), c)
    return coeffs


def _literal_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's string-to-integer digit limit
        raise FieldError(f"the integer literal {digits[:20]}... is too long") from None


_FIELD_RE = re.compile(r"^(?P<base>Q|F(?P<p>\d+))(?:\[t\]/\((?P<mod>.+)\))?$")


def parse_field(spec: str) -> Field:
    """Parse field spec strings: ``Q``, ``F2``, ``F2[t]/(t^2+t+1)``."""
    m = _FIELD_RE.match(spec.replace(" ", ""))
    if not m:
        raise FieldError(f"bad field spec {spec!r}")
    base: Field = QQ if m.group("base") == "Q" else PrimeField(_literal_int(m.group("p")))
    if m.group("mod") is None:
        return base
    return ExtensionField(base, parse_poly(m.group("mod"), base))
