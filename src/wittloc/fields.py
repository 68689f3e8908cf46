"""Supported coefficient fields and exact element arithmetic.

A field is one of Q, R (with exact rational representatives), F_p for an odd
prime p, or a single quadratic step k(sqrt(a)) over one of those.  Elements
are plain Python values: ``Fraction`` for Q and R, ``int`` residues for F_p,
and ``(u, v)`` pairs meaning u + v*sqrt(a) for quadratic extensions.
The characteristic of F_p is checked by ``is_prime``, an exact test.

``Canonical`` is the base of every immutable key of the library (fields,
presentations, quadratic-extension contexts, irreps, RepSums and groups): one
object per value, so == and hash are identity, and a copy or pickle is
that object again.  Every value made is kept for the life of the process.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional, Tuple

from .errors import UnsupportedField

RATIONALS = "Q"
REALS = "R"
FINITE_PRIME = "Fp"
QUAD_EXT = "QuadExt"


# ---------------------------------------------------------------------------
# primality

_SMALL_PRIMES = tuple(p for p in range(2, 1000) if all(p % q for q in range(2, math.isqrt(p) + 1)))
# strong Miller-Rabin to the first 13 prime bases is correct below this bound
# (Sorenson and Webster, Math. Comp. 86 (2017))
_MR_BOUND = 3317044064679887385961981
_MR_BASES = _SMALL_PRIMES[:13]


def _strong_probable_prime(n: int, a: int) -> bool:
    """Strong Fermat test of the odd n > a to the base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test of the odd n > 1 with Selfridge's parameters.

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D)/4 (Baillie and Wagstaff, Math. Comp. 35 (1980)).
    """
    if math.isqrt(n) ** 2 == n:
        return False  # (D/n) is never -1 for a square n
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1

    def half(x: int) -> int:
        x %= n
        return (x + n if x % 2 else x) // 2

    # U_k, V_k and Q^k mod n for the prefixes k of d, read from the top bit
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Exact primality of an integer.

    Trial division by the primes below 1000, then strong Miller-Rabin to the
    first 13 prime bases, which is proven correct below ``_MR_BOUND``
    (about 3.3e24).  Above it, the strong Baillie-PSW test: Miller-Rabin to
    base 2 and a strong Lucas test, with no known counterexample.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
        if p * p > n:
            return True
    if n < _MR_BOUND:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


# ---------------------------------------------------------------------------
# canonical values


class Canonical:
    """An immutable value, one object per value, so == and hash are
    identity.  A subclass lists its value attributes in ``_fields``; its
    ``__new__`` returns ``_canonical(*values)``.  The table is keyed by the
    values and their types, as with ``lru_cache(typed=True)``: True and 1
    make two keys.  ``_made`` checks a new value and sets its derived
    attributes before it is stored, so a lookup checks nothing and a
    rejected value is never stored.  A copy or pickle goes through the
    constructor, so it is the same object."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._table = {}

    @classmethod
    def _canonical(cls, *values):
        key = (*values, *map(type, values))
        x = cls._table.get(key)
        if x is None:
            x = object.__new__(cls)
            for name, value in zip(cls._fields, values):
                object.__setattr__(x, name, value)
            x._made()
            # setdefault: of two racing constructions, one object wins
            x = cls._table.setdefault(key, x)
        return x

    def _made(self) -> None:
        pass

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({values})"


# the values each field kind takes
_TAKES = {RATIONALS: (), REALS: (), FINITE_PRIME: ("p",), QUAD_EXT: ("base", "a")}


class FieldDescriptor(Canonical):
    """A supported field, checked once per value in ``_made``; ``__new__``
    coerces a into the base first.  ``modulus`` is N, the additive order of
    <1> in W(k), or 0 when it has none, and ``minus_one_square`` whether -1
    is a square in k."""

    _fields = ("kind", "p", "base", "a")
    __slots__ = _fields + ("modulus", "minus_one_square")

    def __new__(cls, kind: str, p: Optional[int] = None,
                base: Optional["FieldDescriptor"] = None, a: object = None):
        if kind == QUAD_EXT and isinstance(base, FieldDescriptor):
            a = coerce(base, a)
        return cls._canonical(kind, p, base, a)

    def _made(self):
        kind, p, base, a = self.kind, self.p, self.base, self.a
        if kind not in _TAKES:
            raise UnsupportedField(f"unknown field kind {kind!r}")
        for name in ("p", "base", "a"):
            if getattr(self, name) is not None and name not in _TAKES[kind]:
                raise UnsupportedField(f"a {kind} field takes no {name}")
        if kind == FINITE_PRIME and (type(p) is not int or p == 2 or not is_prime(p)):
            raise UnsupportedField(f"need an odd prime, got {p!r}")
        if kind == QUAD_EXT:
            if not isinstance(base, FieldDescriptor):
                raise UnsupportedField(f"need a base field, got {base!r}")
            if base.kind == QUAD_EXT:
                raise UnsupportedField("quadratic extensions may not be nested")
            if is_square(base, a):  # 0 counts as a square
                raise UnsupportedField(f"{scalar_repr(base, a)} is already a square in {base}")
        # N is 0 for k formally real, else 2*level(k) (Lam, ch. XI), and the
        # level is 1 exactly when -1 is a square
        object.__setattr__(self, "modulus", _integer_modulus(self))
        object.__setattr__(self, "minus_one_square", self.modulus == 2)

    def __str__(self) -> str:
        if self.kind == RATIONALS:
            return "Q"
        if self.kind == REALS:
            return "R"
        if self.kind == FINITE_PRIME:
            return f"Fp:{self.p}"
        return f"{self.base}(sqrt:{scalar_repr(self.base, self.a)})"


def _integer_modulus(field: FieldDescriptor) -> int:
    """N in closed form, nothing factored.  For Q(sqrt a), a < 0, it reads
    the squarefree d with -a in d*Q*^2: x = |num(a)*den(a)| is d times a
    square, so d = 1 (N = 2) when x is a square, and, as odd squares are 1
    mod 8, d = 7 mod 8 (N = 8) when the 2-adic valuation of x is even and
    its odd part is 7 mod 8; else N = 4."""
    if field.kind in (RATIONALS, REALS):
        return 0
    if field.kind == FINITE_PRIME:
        return 2 if field.p % 4 == 1 else 4
    if field.base.kind != RATIONALS:
        return 2  # F_{p^2}, or C
    a = field.a
    if a > 0:
        return 0
    x = abs(a.numerator * a.denominator)
    if math.isqrt(x) ** 2 == x:
        return 2
    v = (x & -x).bit_length() - 1
    return 8 if v % 2 == 0 and (x >> v) % 8 == 7 else 4


def rationals() -> FieldDescriptor:
    return FieldDescriptor(RATIONALS)


def reals() -> FieldDescriptor:
    return FieldDescriptor(REALS)


def finite_prime(p: int) -> FieldDescriptor:
    return FieldDescriptor(FINITE_PRIME, p=p)


def quad_ext(base: FieldDescriptor, a) -> FieldDescriptor:
    """k(sqrt(a)) for a a nonzero non-square of the base field."""
    return FieldDescriptor(QUAD_EXT, base=base, a=a)


# ---------------------------------------------------------------------------
# element arithmetic


def coerce(field: FieldDescriptor, x):
    """Turn ints/Fractions/pairs into the canonical element representation."""
    if field.kind in (RATIONALS, REALS):
        if type(x) is Fraction:  # already canonical, and immutable
            return x
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise UnsupportedField(f"cannot coerce {x!r} into {field}")
        return Fraction(x)
    if field.kind == FINITE_PRIME:
        if isinstance(x, Fraction):
            if x.denominator % field.p == 0:
                raise ZeroDivisionError(f"denominator divisible by {field.p}")
            return x.numerator * pow(x.denominator, -1, field.p) % field.p
        if not isinstance(x, int):
            raise UnsupportedField(f"cannot coerce {x!r} into {field}")
        return x % field.p
    if isinstance(x, tuple) and len(x) == 2:  # k(sqrt a), the last kind
        return (coerce(field.base, x[0]), coerce(field.base, x[1]))
    return (coerce(field.base, x), coerce(field.base, 0))


def zero(field: FieldDescriptor):
    return coerce(field, 0)


def one(field: FieldDescriptor):
    return coerce(field, 1)


def is_zero(field: FieldDescriptor, x) -> bool:
    # elements are canonical: Fractions, or residues reduced mod p
    if field.kind == QUAD_EXT:
        return x[0] == 0 and x[1] == 0
    return x == 0


def add(field: FieldDescriptor, x, y):
    if field.kind == QUAD_EXT:
        b = field.base
        return (add(b, x[0], y[0]), add(b, x[1], y[1]))
    if field.kind == FINITE_PRIME:
        return (x + y) % field.p
    return x + y


def neg(field: FieldDescriptor, x):
    if field.kind == QUAD_EXT:
        b = field.base
        return (neg(b, x[0]), neg(b, x[1]))
    if field.kind == FINITE_PRIME:
        return (-x) % field.p
    return -x


def sub(field: FieldDescriptor, x, y):
    return add(field, x, neg(field, y))


def mul(field: FieldDescriptor, x, y):
    if field.kind == QUAD_EXT:
        b = field.base
        u = add(b, mul(b, x[0], y[0]), mul(b, field.a, mul(b, x[1], y[1])))
        v = add(b, mul(b, x[0], y[1]), mul(b, x[1], y[0]))
        return (u, v)
    if field.kind == FINITE_PRIME:
        return (x * y) % field.p
    return x * y


def inv(field: FieldDescriptor, x):
    if is_zero(field, x):
        raise ZeroDivisionError("inverse of zero")
    if field.kind == QUAD_EXT:
        b = field.base
        n = ext_norm(field, x)
        ninv = inv(b, n)
        return (mul(b, x[0], ninv), mul(b, neg(b, x[1]), ninv))
    if field.kind == FINITE_PRIME:
        return pow(x, -1, field.p)
    return 1 / x


def div(field: FieldDescriptor, x, y):
    return mul(field, x, inv(field, y))


def ext_norm(field: FieldDescriptor, x):
    """Norm u^2 - a*v^2 of u + v*sqrt(a), an element of the base field."""
    b = field.base
    return sub(b, mul(b, x[0], x[0]), mul(b, field.a, mul(b, x[1], x[1])))


# ---------------------------------------------------------------------------
# squares and signs


def _fraction_square_root(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _is_square_fraction(q: Fraction) -> bool:
    return _fraction_square_root(q) is not None


def _legendre(u: int, p: int) -> int:
    u %= p
    if u == 0:
        return 0
    return 1 if pow(u, (p - 1) // 2, p) == 1 else -1


def _is_square_int(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def integral_coordinates(x) -> Tuple[int, int]:
    """u + v*sqrt(a) in Q(sqrt a) scaled by the rational square L^2, L the
    lcm of the denominators of u and v: integral coordinates of an element
    of the same square class, read off numerators and denominators."""
    u, v = x
    L = math.lcm(u.denominator, v.denominator)
    return (u.numerator * (L // u.denominator) * L, v.numerator * (L // v.denominator) * L)


def scaled_product(A: int, B: int, x, y) -> Tuple[int, int]:
    """B^2*x*y for x, y in integral coordinates of Q(sqrt a), a = A/B in
    lowest terms: x*y has rational part u*u' + a*v*v', and the square B^2
    makes it an integer, so the product keeps its square class and stays
    in integers."""
    (u, v), (u2, v2) = x, y
    return (B * (B * u * u2 + A * v * v2), B * B * (u * v2 + v * u2))


def is_square_integral(A: int, B: int, u: int, v: int) -> bool:
    """Whether u + v*sqrt(a), u and v integers and a = A/B in lowest terms,
    is a square in Q(sqrt a), in integers.  For v = 0 it is one iff u or
    u/a is a rational square, and u/a = u*A*B/A^2.  Else x = (p + q*sqrt a)^2
    makes the norm u^2 - a*v^2 a square w^2 and p^2 one of (u +- w)/2, and
    conversely.  Scaled by B^2 the norm is the integer M = B*(B*u^2 - A*v^2)
    = (B*w)^2, and (u +- w)/2 = (B*u +- B*w)/(2B) is a rational square iff
    2B*(B*u +- B*w) is a perfect square."""
    if not v:
        return _is_square_int(u) or _is_square_int(u * A * B)
    M = B * (B * u * u - A * v * v)
    if M < 0:
        return False
    w = math.isqrt(M)
    return w * w == M and (_is_square_int(2 * B * (B * u + w))
                           or _is_square_int(2 * B * (B * u - w)))


def is_square(field: FieldDescriptor, x) -> bool:
    """Exact square test; zero counts as a square."""
    if field.kind == RATIONALS:
        return x == 0 or _is_square_fraction(x)
    if field.kind == REALS:
        return x >= 0
    if field.kind == FINITE_PRIME:
        return x == 0 or _legendre(x, field.p) == 1
    base = field.base
    if base.kind == FINITE_PRIME:
        # F_{p^2}: x^((p^2-1)/2) = N(x)^((p-1)/2), as N(x) = x^(p+1), so x
        # is a square exactly when its norm is a square in F_p
        return is_square(base, ext_norm(field, x))
    if base.kind == REALS:
        # a < 0, so this is C: every element is a square.
        return True
    # Q(sqrt a): decided in integer coordinates of the same square class
    a = field.a
    return is_square_integral(a.numerator, a.denominator, *integral_coordinates(x))


def real_sign(field: FieldDescriptor, x, positive_root: bool = True) -> int:
    """Sign of x under a real embedding.

    For Q/R this is the usual sign.  For Q(sqrt(a)) with a > 0 the two real
    embeddings send sqrt(a) to +-sqrt(a); `positive_root` picks which one.
    """
    if field.kind in (RATIONALS, REALS):
        return (x > 0) - (x < 0)
    if field.kind != QUAD_EXT or field.base.kind != RATIONALS or field.a <= 0:
        raise UnsupportedField("real embeddings need Q(sqrt:a) with a > 0")
    u, v = x[0], x[1] if positive_root else -x[1]
    su, sv = (u > 0) - (u < 0), (v > 0) - (v < 0)
    if su * sv >= 0:
        return su or sv
    # opposite signs: the larger of u^2 and a*v^2 (never equal) decides,
    # compared as B*u^2 and A*v^2 for a = A/B, so int coordinates stay ints
    a = field.a
    return su if a.denominator * u * u > a.numerator * v * v else sv


def elements(field: FieldDescriptor) -> Iterator:
    """All elements of a finite field (F_p or F_{p^2})."""
    if field.kind == FINITE_PRIME:
        yield from range(field.p)
        return
    if field.kind == QUAD_EXT and field.base.kind == FINITE_PRIME:
        for u in range(field.base.p):
            for v in range(field.base.p):
                yield (u, v)
        return
    raise UnsupportedField(f"{field} is not finite")


@lru_cache(maxsize=None)
def least_nonresidue(p: int) -> int:
    for s in range(2, p):
        if _legendre(s, p) == -1:
            return s
    raise UnsupportedField(f"{p} has no quadratic non-residue")


def first_nonsquare(field: FieldDescriptor):
    """Deterministic non-square representative of a finite field."""
    if field.kind == FINITE_PRIME:
        return least_nonresidue(field.p)
    for x in elements(field):
        if not is_zero(field, x) and not is_square(field, x):
            return x
    raise UnsupportedField(f"no non-square found in {field}")


def scalar_repr(field: FieldDescriptor, x) -> str:
    """Deterministic printable form of an element (parseable back)."""
    if field.kind in (RATIONALS, REALS):
        return str(x)
    if field.kind == FINITE_PRIME:
        return str(x)
    u, v = x
    us = scalar_repr(field.base, u)
    if is_zero(field.base, v):
        return us
    if v == one(field.base):
        vs = "r"
    elif field.base.kind != FINITE_PRIME and v == -1:
        vs = "-r"
    else:
        vs = f"{scalar_repr(field.base, v)}*r"
    if is_zero(field.base, u):
        return vs
    if vs.startswith("-"):
        return f"{us}{vs}"
    return f"{us}+{vs}"
