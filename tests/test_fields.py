from fractions import Fraction

import pytest

from wittloc import fields as F
from wittloc.errors import UnsupportedField


def test_field_tags_print_and_compare():
    assert str(F.rationals()) == "Q"
    assert str(F.reals()) == "R"
    assert str(F.finite_prime(7)) == "Fp:7"
    assert F.finite_prime(7) == F.finite_prime(7)
    assert F.finite_prime(7) != F.finite_prime(5)


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
