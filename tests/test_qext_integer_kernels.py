"""The W(Q(sqrt a)) kernels that run in integer coordinates, against the
Fraction formulas they replaced (``oracles``): normalization, the square
test, the B^2-scaled product, the Z[sqrt d] scaling, the trace-form entries
and the real sign.  a ranges over integers and over fractions A/B with B > 1,
where a slip between scaling by L and by the square L^2 changes a square
class; the entries have denominators and zero coordinates."""

import importlib
import math
import random
from fractions import Fraction

import pytest

from wittloc import fields as F
from wittloc import places

from oracles import (clear_rational_squares, is_square_qext_by_fractions, sign_at_root,
                     trace_form_entries_by_fractions, z_sqrt_d_by_fractions)

W = importlib.import_module("wittloc.witt")
Q = F.rationals()
A_VALUES = [2, 3, 5, 17, -1, -7, Fraction(3, 4), Fraction(12, 5), Fraction(-15, 4)]


def _entry(rng):
    """A nonzero u + v*sqrt(a) with small Fraction coordinates, one of them
    zero about a third of the time."""
    while True:
        u, v = (Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(2))
        zero = rng.random()
        u, v = (0 * u, v) if zero < 0.15 else (u, 0 * v) if zero < 0.3 else (u, v)
        if u or v:
            return (Fraction(u), Fraction(v))


def _cases(a, count=150):
    field = F.quad_ext(Q, a)
    rng = random.Random(f"integer-kernels:{a}")
    return field, [_entry(rng) for _ in range(count)]


@pytest.mark.parametrize("a", A_VALUES, ids=str)
def test_integral_coordinates_scale_by_the_square_of_the_denominator_lcm(a):
    field, entries = _cases(a)
    for c in entries:
        L = math.lcm(c[0].denominator, c[1].denominator)
        u, v = F.integral_coordinates(c)
        assert type(u) is int and type(v) is int
        assert (u, v) == (c[0] * L * L, c[1] * L * L), c


@pytest.mark.parametrize("a", A_VALUES, ids=str)
def test_normalize_matches_the_fraction_formula(a):
    field, entries = _cases(a)
    for c in entries:
        r = W._normalize_qext_entry(c)
        assert type(r[0]) is int and type(r[1]) is int
        assert r == clear_rational_squares(c), c
        # an int pair, as a scaled product arrives, normalizes the same way
        assert W._normalize_qext_entry(F.integral_coordinates(c)) == r


@pytest.mark.parametrize("a", A_VALUES, ids=str)
def test_square_test_matches_the_fraction_formula(a):
    """Half of the elements are built as squares, some of them rational
    multiples of a, so both answers occur."""
    field, entries = _cases(a)
    rng = random.Random(f"integer-squares:{a}")
    seen = set()
    for c in entries:
        x = F.mul(field, c, c) if rng.random() < 0.5 else c
        if rng.random() < 0.2:
            x = F.mul(field, x, (Fraction(0), Fraction(rng.randint(1, 3), rng.randint(1, 3))))
        want = is_square_qext_by_fractions(field.a, x)
        assert F.is_square(field, x) == want, x
        seen.add(want)
    assert seen == {True, False}


@pytest.mark.parametrize("a", A_VALUES, ids=str)
def test_scaled_product_and_hyperbolic_pairs_match_the_fraction_formulas(a):
    field, entries = _cases(a)
    A, B = field.a.numerator, field.a.denominator
    rng = random.Random(f"integer-products:{a}")
    seen = set()
    for c in entries:
        r = W._normalize_qext_entry(c)
        t = _entry(rng)
        s = W._normalize_qext_entry(F.neg(field, F.mul(field, r, F.mul(field, t, t)))
                                    if rng.random() < 0.5 else _entry(rng))
        u, v = F.scaled_product(A, B, r, s)
        prod = F.mul(field, r, s)
        assert type(u) is int and type(v) is int
        assert (u, v) == (B * B * prod[0], B * B * prod[1]), (r, s)
        want = is_square_qext_by_fractions(field.a, F.neg(field, prod))
        assert W._hyperbolic_qext(A, B, r, s) == want, (r, s)
        seen.add(want)
    assert seen == {True, False}


@pytest.mark.parametrize("a", A_VALUES, ids=str)
def test_z_sqrt_d_matches_the_fraction_formula(a):
    field, entries = _cases(a)
    d = places.squarefree_part(field.a)
    f = F._fraction_square_root(field.a / d)
    for c in entries:
        u, v = W._normalize_qext_entry(c)
        x, y = places.z_sqrt_d(u, v, f.numerator, f.denominator)
        assert type(x) is int and type(y) is int
        assert (x, y) == z_sqrt_d_by_fractions(field.a, u, v), (u, v)


@pytest.mark.parametrize("a", A_VALUES, ids=str)
def test_trace_form_entries_match_the_fraction_formula(a):
    """Over Q the first entry is the same and the second is the Fraction
    entry times the square B^2."""
    field, entries = _cases(a)
    A, B = field.a.numerator, field.a.denominator
    for c in entries:
        r = W._normalize_qext_entry(c)
        got = W.trace_form_entries(r, A, B)
        want = trace_form_entries_by_fractions(tuple(map(Fraction, r)), Q, field.a)
        assert all(type(e) is int for e in got)
        if r[0]:
            want = (want[0], B * B * want[1])
        assert tuple(Fraction(e) for e in got) == want, r


@pytest.mark.parametrize("p, a", [(7, 3), (13, 5), (11, 2)], ids=str)
def test_trace_form_entries_over_f_p_are_the_same_formula_with_b_one(p, a):
    base = F.finite_prime(p)
    for u in range(p):
        for v in range(p):
            if u or v:
                got = tuple(e % p for e in W.trace_form_entries((u, v), a, 1))
                assert got == trace_form_entries_by_fractions((u, v), base, a), (u, v)


@pytest.mark.parametrize("a", [a for a in A_VALUES if a > 0], ids=str)
def test_real_sign_matches_the_fraction_formula(a):
    field, entries = _cases(a)
    for c in entries:
        for x in (c, W._normalize_qext_entry(c)):
            for root in (True, False):
                want = sign_at_root(x, field.a, 1 if root else -1)
                assert F.real_sign(field, x, root) == want, (x, root)
