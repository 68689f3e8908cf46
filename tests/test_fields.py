import copy
import pickle
import random
from fractions import Fraction

import pytest
from sympy import isprime, jacobi_symbol, nextprime
from sympy.ntheory.primetest import is_strong_lucas_prp

from wittloc import fields as F
from wittloc.errors import UnsupportedField
from wittloc.exprs import parse_field


def test_field_tags_print_and_compare():
    assert str(F.rationals()) == "Q"
    assert str(F.reals()) == "R"
    assert str(F.finite_prime(7)) == "Fp:7"
    assert F.finite_prime(7) == F.finite_prime(7)
    assert F.finite_prime(7) != F.finite_prime(5)


@pytest.mark.parametrize("make", [
    F.rationals,
    F.reals,
    lambda: F.finite_prime(7),
    # quad_ext and the constructor make one object per (base, a)
    lambda: F.FieldDescriptor(F.QUAD_EXT, base=F.rationals(), a=Fraction(2)),
    lambda: F.FieldDescriptor(F.QUAD_EXT, base=F.finite_prime(7), a=3),
], ids=["Q", "R", "Fp7", "Q(sqrt 2)", "F7(sqrt 3)"])
def test_equal_fields_compare_equal_and_hash_equal(make):
    """A field is one object per value.  Equal fields built apart, and
    copies and pickles, which are made anew through the constructor, are
    that object, so they compare equal, hash equal and find each other in
    a dict."""
    field = make()
    for other in (make(), copy.deepcopy(field), pickle.loads(pickle.dumps(field))):
        assert other is field
        assert other == field and hash(other) == hash(field)
        assert {field: "found"}[other] == "found"
        assert str(other) == str(field) and repr(other) == repr(field)
    if field.kind == F.QUAD_EXT:
        assert F.quad_ext(field.base, field.a) is field
    assert parse_field(str(field)) is field


class _Pair(F.Canonical):
    """A canonical value whose constructor checks nothing."""

    __slots__ = _fields = ("x", "y")

    def __new__(cls, x, y):
        return cls._canonical(x, y)


def test_a_field_is_keyed_by_its_values_and_their_types():
    """The canonical table is keyed as lru_cache(typed=True) keys are: equal
    values of one type make one object, but True and 1, or 2 and
    Fraction(2), make two, though each pair is ==.  FieldDescriptor
    coerces a into its base first, so an int a and its Fraction make one
    field, and it rejects a p that is not an int."""
    assert _Pair(1, 2) is _Pair(1, 2)
    assert _Pair(True, 2) is not _Pair(1, 2) and _Pair(True, 2).x == 1
    assert _Pair(1, Fraction(2)) is not _Pair(1, 2)
    field = F.FieldDescriptor(F.QUAD_EXT, base=F.rationals(), a=1234567)
    assert type(field.a) is Fraction
    assert field is F.quad_ext(F.rationals(), Fraction(1234567)) is F.quad_ext(F.rationals(), 1234567)
    assert F.FieldDescriptor(F.QUAD_EXT, base=F.rationals(), a=2) is F.quad_ext(F.rationals(), Fraction(2))
    f7 = F.finite_prime(7)
    assert F.FieldDescriptor(F.QUAD_EXT, base=f7, a=10) is F.quad_ext(f7, 3)
    for p in (True, 1, 7.0, Fraction(7)):
        with pytest.raises(UnsupportedField):
            F.FieldDescriptor(F.FINITE_PRIME, p=p)


Q = F.rationals()
F7 = F.finite_prime(7)
Q2 = F.quad_ext(Q, 2)
MALFORMED_FIELDS = {
    "unknown kind": lambda: F.FieldDescriptor("junk"),
    "p = 9": lambda: F.FieldDescriptor(F.FINITE_PRIME, p=9),
    "p = 2": lambda: F.FieldDescriptor(F.FINITE_PRIME, p=2),
    "p = True": lambda: F.FieldDescriptor(F.FINITE_PRIME, p=True),
    "p = 7.0": lambda: F.FieldDescriptor(F.FINITE_PRIME, p=7.0),
    "no p": lambda: F.FieldDescriptor(F.FINITE_PRIME),
    "Q with p": lambda: F.FieldDescriptor(F.RATIONALS, p=7),
    "R with a": lambda: F.FieldDescriptor(F.REALS, a=Fraction(2)),
    "Fp with base": lambda: F.FieldDescriptor(F.FINITE_PRIME, p=7, base=Q),
    "extension with p": lambda: F.FieldDescriptor(F.QUAD_EXT, p=7, base=Q, a=2),
    "extension of nothing": lambda: F.FieldDescriptor(F.QUAD_EXT, a=Fraction(2)),
    "nested": lambda: F.FieldDescriptor(F.QUAD_EXT, base=Q2, a=3),
    "a = 0": lambda: F.FieldDescriptor(F.QUAD_EXT, base=Q, a=0),
    "a = 4": lambda: F.FieldDescriptor(F.QUAD_EXT, base=Q, a=Fraction(4)),
    "a = 2 in F_7": lambda: F.FieldDescriptor(F.QUAD_EXT, base=F7, a=2),
    "a = 1 in R": lambda: F.FieldDescriptor(F.QUAD_EXT, base=F.reals(), a=1),
}


@pytest.mark.parametrize("make", MALFORMED_FIELDS.values(), ids=MALFORMED_FIELDS)
def test_a_malformed_field_raises_each_time_and_is_not_stored(make):
    """FieldDescriptor checks each value before it stores it, so a rejected
    one raises UnsupportedField again on the next call and leaves the
    table as it was."""
    made = len(F.FieldDescriptor._table)
    for _ in range(2):
        with pytest.raises(UnsupportedField):
            make()
    assert len(F.FieldDescriptor._table) == made


def test_finite_prime_rejects_bad_characteristic():
    with pytest.raises(UnsupportedField):
        F.finite_prime(2)
    with pytest.raises(UnsupportedField):
        F.finite_prime(9)


def test_quad_ext_rejects_square_a():
    with pytest.raises(UnsupportedField):
        F.quad_ext(F.rationals(), Fraction(4))
    with pytest.raises(UnsupportedField):
        F.quad_ext(F.rationals(), Fraction(0))


def test_quad_ext_proves_a_non_square_once_and_keeps_no_error(monkeypatch):
    """k(sqrt a) is checked once per (base, a), however often it is made;
    a square a is tested again on every call, as a rejected value is not
    stored.  The two a are made by no other test."""
    calls = []

    def spy(field, x, real=F.is_square):
        calls.append((field, x))
        return real(field, x)

    monkeypatch.setattr(F, "is_square", spy)
    f10007 = F.finite_prime(10007)  # -1 is not a square mod 10007 = 3 mod 4
    a = Fraction(-104729, 1013)
    for _ in range(3):
        assert F.quad_ext(F.rationals(), a) is F.quad_ext(F.rationals(), Fraction(-2 * 104729, 2026))
        assert F.quad_ext(f10007, -1).a == 10006
    assert calls == [(F.rationals(), a), (f10007, 10006)]
    for _ in range(2):
        with pytest.raises(UnsupportedField):
            F.quad_ext(F.rationals(), Fraction(104729 ** 2, 1013 ** 2))
    assert len(calls) == 4


def test_quad_ext_no_nesting():
    qe = F.quad_ext(F.rationals(), Fraction(2))
    with pytest.raises(UnsupportedField):
        F.quad_ext(qe, F.coerce(qe, 3))


def test_rational_squares():
    Q = F.rationals()
    assert F.is_square(Q, Fraction(4))
    assert F.is_square(Q, Fraction(9, 16))
    assert not F.is_square(Q, Fraction(2))
    assert not F.is_square(Q, Fraction(-4))


def test_fp_squares_match_euler_criterion():
    for p in (3, 5, 7, 11):
        f = F.finite_prime(p)
        squares = {(u * u) % p for u in range(1, p)}
        for u in range(1, p):
            assert F.is_square(f, u) == (u in squares)


def test_quad_ext_arithmetic_and_norm():
    qe = F.quad_ext(F.rationals(), Fraction(2))
    x = F.coerce(qe, (Fraction(1), Fraction(1)))  # 1 + sqrt(2)
    y = F.mul(qe, x, x)
    assert y == (Fraction(3), Fraction(2))  # (1+r)^2 = 3 + 2r
    assert F.ext_norm(qe, x) == Fraction(-1)
    inv = F.inv(qe, x)
    assert F.mul(qe, x, inv) == F.one(qe)


def test_sqrt2_is_square_in_extension():
    qe = F.quad_ext(F.rationals(), Fraction(2))
    # sqrt(2) = (2^(1/4))^2 is not square, but 2 = (sqrt 2)^2 is
    assert F.is_square(qe, F.coerce(qe, 2))
    assert not F.is_square(qe, F.coerce(qe, 3))


def test_fp2_every_element_power():
    qe = F.quad_ext(F.finite_prime(3), 2)  # F_9
    sq = [x for x in F.elements(qe) if not F.is_zero(qe, x) and F.is_square(qe, x)]
    assert len(sq) == 4  # half of the 8 units


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_fp2_squares_by_the_norm_match_all_squares(p):
    base = F.finite_prime(p)
    qe = F.quad_ext(base, F.least_nonresidue(p))
    squares = {F.mul(qe, y, y) for y in F.elements(qe)}
    for x in F.elements(qe):
        assert F.is_square(qe, x) == (x in squares)


def test_real_sign_in_quad_ext():
    qe = F.quad_ext(F.rationals(), Fraction(2))
    x = F.coerce(qe, (Fraction(-3), Fraction(2)))  # -3 + 2*sqrt(2) < 0
    assert F.real_sign(qe, x, positive_root=True) == -1
    assert F.real_sign(qe, x, positive_root=False) == -1
    y = F.coerce(qe, (Fraction(1), Fraction(1)))
    assert F.real_sign(qe, y, positive_root=True) == 1
    assert F.real_sign(qe, y, positive_root=False) == -1


# Carmichael numbers, then the least strong pseudoprimes to the prime bases up to 7, 31 and 37
CARMICHAEL = [561, 1105, 1729, 41041]
STRONG_PSEUDOPRIMES = [3215031751, 3825123056546413051, 318665857834031151167461]


def test_is_prime_matches_sympy_below_ten_thousand():
    assert [n for n in range(-5, 10_000) if F.is_prime(n)] == [n for n in range(-5, 10_000) if isprime(n)]


@pytest.mark.parametrize("digits", [4, 6, 8, 12, 16, 20, 24, 25, 26, 30])
def test_is_prime_matches_sympy_on_seeded_integers(digits):
    rng = random.Random(digits)
    for _ in range(300):
        n = rng.randrange(10 ** (digits - 1), 10**digits)
        assert F.is_prime(n) == isprime(n), n
        p = nextprime(n)  # a prime in every draw, not one in 2.3 * digits
        assert F.is_prime(p), p


@pytest.mark.parametrize("n", CARMICHAEL + STRONG_PSEUDOPRIMES)
def test_is_prime_rejects_carmichael_numbers_and_strong_pseudoprimes(n):
    assert not F.is_prime(n)


def test_the_miller_rabin_bound_takes_the_lucas_test():
    n = F._MR_BOUND
    # the least strong pseudoprime to all 13 bases: only the Lucas half of BPSW rejects it
    assert all(F._strong_probable_prime(n, a) for a in F._MR_BASES)
    assert not F._strong_lucas_probable_prime(n)
    assert not F.is_prime(n)
    assert F.is_prime(nextprime(n)) and F.is_prime(2**89 - 1)


def test_strong_lucas_test_matches_sympy():
    # 5459, 5777, 10877, 16109, 18971 are strong Lucas pseudoprimes (OEIS A217255)
    odd = range(3, 20_000, 2)
    assert [n for n in odd if F._strong_lucas_probable_prime(n)] == [n for n in odd if is_strong_lucas_prp(n)]
    assert not F.is_prime(5459) and F._strong_lucas_probable_prime(5459)


def test_jacobi_symbol_matches_sympy():
    for n in range(1, 400, 2):
        for a in range(-50, 50):
            assert F._jacobi(a, n) == jacobi_symbol(a, n), (a, n)
