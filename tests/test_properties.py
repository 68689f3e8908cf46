"""Randomized structural properties: canonicalization invariance,
hyperbolic absorption, ring axioms, Euler multiplicativity, printer/parser
round trips, and N-problem verdicts against the Euler class polynomials."""

import math
import random
from fractions import Fraction

import pytest

from wittloc import fields as F
from wittloc.engine import FixedComponent, GroupDescriptor, LocalizationProblem, bott_residue
from wittloc.errors import WittlocError
from wittloc.euler import NIrrep, RHO, RHO0, RHO0_MINUS, SL2nIrrep, euler_rep, n_rep, sl2n_rep
from wittloc.exprs import parse_ring_expr, parse_witt_expr, ring_str, witt_str
from wittloc.quadext import make_context
from wittloc.rings import bnn, bsl2n, e_monomial, from_witt, gen, generator_names, twisted_point
from wittloc.witt import WittClass, integer_class, witt, zero_class

from oracles import (first_residue_by_terms, n_verdict_by_closed_forms, witt_product_by_terms,
                     wq_first_residue)

Q = F.rationals()
NONZERO = [1, -1, 2, -2, 3, -3, 5, 7, -7, 10, 15, -30]


def random_entry(rng, field):
    """A nonzero entry; over k(sqrt a) mostly one with a sqrt(a) part."""
    if field.kind == F.FINITE_PRIME:
        return rng.randrange(1, field.p)
    if field.kind != F.QUAD_EXT:
        return Fraction(rng.choice(NONZERO))
    while True:
        if field.base.kind == F.FINITE_PRIME:
            u, v = rng.randrange(field.base.p), rng.randrange(field.base.p)
        else:
            u, v = (Fraction(rng.choice(NONZERO + [0])) for _ in range(2))
        if u or v:
            return (u, v)


def random_class(rng, field, max_rank=4, multiples=False):
    """A random class; with ``multiples``, t*x + y with |t| up to 10^6."""
    x = witt(field, *(random_entry(rng, field) for _ in range(rng.randint(0, max_rank))))
    if not multiples:
        return x
    t = rng.randint(-10 ** 6, 10 ** 6)
    return t * x + witt(field, *(random_entry(rng, field) for _ in range(rng.randint(0, 2))))


@pytest.mark.parametrize("field", [Q, F.reals(), F.finite_prime(7)])
def test_canonicalization_congruence(field):
    """Permuting entries or scaling them by squares never changes the class."""
    rng = random.Random(11)
    for _ in range(200):
        x = random_class(rng, field)
        entries = list(x.entries)
        rng.shuffle(entries)
        scaled = []
        for c in entries:
            s = rng.choice([1, 4, 9, 25]) if field.kind != "Fp" else rng.randrange(1, field.p) ** 2
            scaled.append(c * s)
        assert WittClass.from_entries(field, tuple(scaled)) == x


@pytest.mark.parametrize("field", [Q, F.reals(), F.finite_prime(5)])
def test_hyperbolic_absorption(field):
    rng = random.Random(23)
    for _ in range(200):
        x = random_class(rng, field)
        if field.kind == "Fp":
            c = rng.randrange(1, field.p)
            neg_c = (-c) % field.p
        else:
            c = Fraction(rng.choice(NONZERO))
            neg_c = -c
        padded = WittClass.from_entries(field, tuple(x.entries) + (c, neg_c))
        assert padded == x


# the additive order N of <1> is 0, 0, 2, 4, 2, 0, 2 and 8
SCALE_FIELDS = [Q, F.reals(), F.finite_prime(5), F.finite_prime(7),
                F.quad_ext(F.finite_prime(3), 2), F.quad_ext(Q, 2), F.quad_ext(Q, -1),
                F.quad_ext(Q, -7)]
BIG = 2 ** 61 + 1


def _doubled(x, k):
    """2^k copies of x, summed by k doublings."""
    for _ in range(k):
        x = x + x
    return x


@pytest.mark.parametrize("field", SCALE_FIELDS, ids=str)
def test_integer_multiples_are_repeated_sums(field):
    """The closed-form t*x has the key of |t| copies of x summed (of -x for
    t < 0), for t in -40..40 and t = +-(2^61 + 1)."""
    rng = random.Random(f"scale:{field}")
    for _ in range(12):
        x = random_class(rng, field)
        plus, minus = [zero_class(field)], [zero_class(field)]
        for _ in range(40):
            plus.append(plus[-1] + x)
            minus.append(minus[-1] - x)
        for t in range(-40, 41):
            assert (t * x).key == (plus[t] if t >= 0 else minus[-t]).key, (t, x)
        assert (BIG * x).key == (_doubled(x, 61) + x).key
        assert (-BIG * x).key == (_doubled(-x, 61) - x).key


@pytest.mark.parametrize("field", SCALE_FIELDS[:5], ids=str)
def test_integer_classes_read_back(field):
    """integer_class(t).integer_value() is t over the keyed fields, taken
    mod N when <1> has additive order N."""
    N = field.modulus
    for t in list(range(-40, 41)) + [BIG, -BIG]:
        assert integer_class(t, field).integer_value() == (t % N if N else t)


PRIMES_TO_43 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
PRODUCT_FIELDS = [Q, F.reals(), F.finite_prime(5), F.finite_prime(7),
                  F.quad_ext(F.finite_prime(3), 2)]


def colliding_rational(rng):
    """A nonzero rational: mostly a signed product of up to three primes
    <= 43 over 1, 2, 3 or 4, so that classes share residue primes; else an
    integer of height up to 10^6."""
    if rng.random() < 0.8:
        num = math.prod(rng.sample(PRIMES_TO_43, rng.randint(0, 3)))
        return Fraction(rng.choice((1, -1)) * num, rng.choice((1, 1, 2, 3, 4)))
    return Fraction(rng.choice((1, -1)) * rng.randint(1, 10 ** 6))


def product_operand(rng, field):
    """A random class; over Q of colliding rationals, half the time t*x + y
    with |t| up to 10^6."""
    if field != Q:
        return random_class(rng, field, multiples=rng.random() < 0.5)
    x = witt(Q, *(colliding_rational(rng) for _ in range(rng.randint(0, 5))))
    if rng.random() < 0.5:
        y = witt(Q, *(colliding_rational(rng) for _ in range(rng.randint(0, 2))))
        x = rng.randint(-10 ** 6, 10 ** 6) * x + y
    return x


@pytest.mark.parametrize("field", PRODUCT_FIELDS, ids=str)
def test_key_product_matches_the_product_through_representatives(field):
    """x*y, computed on the keys, has the key of the sum of n*m<c*d> over
    the counted terms of x and y."""
    rng = random.Random(f"mul:{field}")
    for _ in range(2000 if field == Q else 300):
        x, y = product_operand(rng, field), product_operand(rng, field)
        assert (x * y).key == witt_product_by_terms(x, y).key, (x, y)


def test_first_residue_read_off_the_key_matches_the_terms():
    """s_p read off a W(Q) key equals s_p summed over its counted terms, for
    every odd p <= 43."""
    rng = random.Random("first-residue")
    for _ in range(1000):
        x = product_operand(rng, Q)
        for p in PRIMES_TO_43[1:]:
            assert wq_first_residue(x.key, p) == first_residue_by_terms(x.terms, p), (x, p)


def random_ring_elem(rng, pres, max_terms=4, multiples=False):
    names = generator_names(pres)
    out = from_witt(pres, random_class(rng, pres.field, 2, multiples))
    for _ in range(rng.randint(0, max_terms - 1)):
        t = from_witt(pres, random_class(rng, pres.field, 2, multiples))
        for _ in range(rng.randint(0, 2)):
            t = t * gen(pres, rng.choice(names))
        out = out + t
    return out


@pytest.mark.parametrize(
    "pres",
    [bsl2n(2, Q), bnn(1, Q), bnn(2, F.finite_prime(5)), twisted_point(make_context(Q, Fraction(2)))],
    ids=str,
)
def test_ring_laws_random_triples(pres):
    rng = random.Random(37)
    for _ in range(100):
        x = random_ring_elem(rng, pres)
        y = random_ring_elem(rng, pres)
        z = random_ring_elem(rng, pres)
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x - x).is_zero()


def test_euler_whitney_multiplicativity():
    """e(V + W) = e(V)e(W) on 200 random pairs, checked on squares when a
    factor is only determined up to sign."""
    rng = random.Random(41)
    for _ in range(100):
        reps = []
        for _ in range(2):
            kind = rng.random()
            if kind < 0.5:
                m = rng.choice([1, 3, 5])
                i = rng.randint(1, 2)
                reps.append(sl2n_rep(2, [SL2nIrrep((m, 0) if i == 1 else (0, m))]))
            else:
                reps.append(sl2n_rep(2, [SL2nIrrep((1, 1))]))
        v, w = reps
        ev, ew, evw = euler_rep(v, Q), euler_rep(w, Q), euler_rep(v.concat(w), Q)
        assert evw.value == ev.value * ew.value
        assert evw.known_square == ev.known_square * ew.known_square
    for _ in range(100):
        ms = [rng.choice([1, 2, 3, 4]) for _ in range(2)]
        v = n_rep([NIrrep(RHO, ms[0])])
        w = n_rep([NIrrep(RHO, ms[1])])
        evw = euler_rep(v.concat(w), Q)
        sq = euler_rep(v, Q).known_square * euler_rep(w, Q).known_square
        assert evw.known_square == sq


@pytest.mark.parametrize(
    "field",
    [Q, F.finite_prime(7), F.reals(), F.quad_ext(F.finite_prime(7), 3),
     F.quad_ext(F.reals(), -1), F.quad_ext(Q, 2), F.quad_ext(Q, -7)],
)
def test_witt_printer_round_trip(field):
    rng = random.Random(53)
    for _ in range(200):
        x = random_class(rng, field)
        assert parse_witt_expr(witt_str(x), field) == x
        x = random_class(rng, field, multiples=True)
        assert parse_witt_expr(witt_str(x), field) == x


@pytest.mark.parametrize(
    "pres",
    [bsl2n(2, Q), bnn(1, Q), twisted_point(make_context(Q, Fraction(3)))],
    ids=str,
)
def test_ring_printer_round_trip(pres):
    rng = random.Random(59)
    for _ in range(150):
        x = random_ring_elem(rng, pres)
        assert parse_ring_expr(ring_str(x), pres) == x
        x = random_ring_elem(rng, pres, multiples=True)
        assert parse_ring_expr(ring_str(x), pres) == x


def random_n_rep(rng):
    """One or two N irreps, each once or twice; rho0, rho0- and even m now
    and then."""
    irreps = []
    for _ in range(rng.randint(1, 2)):
        u = rng.random()
        irrep = NIrrep(RHO0) if u < 0.04 else NIrrep(RHO0_MINUS) if u < 0.08 else \
            NIrrep(RHO, rng.choice([1, 1, 3, 3, 5, 7, 2, 4]))
        irreps.append((irrep, rng.randint(1, 2)))
    return n_rep(irreps)


# a non-square a of each base field with twisted points, and fields without
N_FIELDS = [(Q, [2, 3, -1]), (F.reals(), [-1]), (F.finite_prime(5), [2]),
            (F.finite_prime(7), [3]), (F.quad_ext(Q, 2), []), (F.quad_ext(Q, -7), []),
            (F.quad_ext(Q, -1), [])]


@pytest.mark.parametrize("field, twists", N_FIELDS, ids=[str(f) for f, _ in N_FIELDS])
def test_n_problem_verdicts_match_the_euler_class_polynomials(field, twists):
    """On random N problems, bott_residue raises the error (type and message)
    of the first check that the Euler class polynomials fail, or answers the
    degree_zero their fractions sum to (``n_verdict_by_closed_forms``)."""
    rng = random.Random(f"n-verdicts:{field}")
    pres = bnn(1, field)
    for _ in range(60):
        comps = []
        for i in range(rng.randint(1, 2)):
            residue = "rational"
            if twists and rng.random() < 0.3:
                residue = make_context(field, Fraction(rng.choice(twists)))
            normal, u = random_n_rep(rng), rng.random()
            restricted = normal if u < 0.5 else random_n_rep(rng) if u < 0.8 else \
                e_monomial(pres, rng.randint(-3, 3), e=rng.randint(0, 3))
            comps.append(FixedComponent(f"c{i}", residue, normal, restricted))
        prob = LocalizationProblem(GroupDescriptor("N", 1, field), tuple(comps))
        want = n_verdict_by_closed_forms(prob)
        try:
            got = bott_residue(prob).degree_zero
        except WittlocError as e:
            got = (type(e), str(e))
        assert got == want, [(c.normal_rep, c.restricted, c.residue) for c in comps]
