import random
import time
from fractions import Fraction

import pytest

from wittloc import fields as F
from wittloc import places
from wittloc.errors import FieldMismatch
from wittloc.quadext import (
    all_witt_classes,
    base_change,
    in_Ia,
    iota_is_zero,
    lam_exactness_check,
    make_context,
    one_minus_a,
    principal_ideal_certificate,
    scaled_transfer,
    sqrt_a_class,
    transfer,
)
from wittloc.witt import (
    WittClass,
    diagonalize,
    integer_class,
    trace_form_entries,
    witt,
)

Q = F.rationals()


def ctx_q2():
    return make_context(Q, Fraction(2))


def test_transfer_of_one():
    """Tr(<1>) is the trace form <2> + <2a> of the extension."""
    ctx = ctx_q2()
    one_ext = WittClass.from_entries(ctx.ext, (F.one(ctx.ext),))
    assert transfer(one_ext, ctx) == witt(Q, 2, 4)  # <2> + <2*2>


@pytest.mark.parametrize(
    "base, a", [(Q, Fraction(2)), (Q, Fraction(-7)), (F.finite_prime(7), 3), (F.finite_prime(13), 5)],
    ids=str,
)
def test_closed_form_trace_form_matches_the_gram_matrix(base, a):
    """<2c0, 2a c0 N(c)>, or <1, -1> when c0 = 0, is the class of the Gram
    matrix [[2c0, 2a c1], [2a c1, 2a c0]] of (u, v) -> Tr(c u v)."""
    rng = random.Random(f"trace-form:{base}:{a}")
    a = F.coerce(base, a)
    for _ in range(40):
        if base.kind == F.FINITE_PRIME:
            c0, c1 = rng.randrange(base.p), rng.randrange(1, base.p)
        else:
            c0 = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            c1 = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5))
        c0, c1 = F.coerce(base, c0), F.coerce(base, c1)
        two = F.coerce(base, 2)
        g00 = F.mul(base, two, c0)
        g01 = F.mul(base, two, F.mul(base, a, c1))
        g11 = F.mul(base, two, F.mul(base, a, c0))
        gram = WittClass.from_entries(base, diagonalize([[g00, g01], [g01, g11]], base))
        closed = WittClass.from_entries(base, trace_form_entries((c0, c1), base, a))
        assert closed == gram, (c0, c1)


def test_transfer_of_sqrt_a_vanishes():
    ctx = ctx_q2()
    assert transfer(sqrt_a_class(ctx.ext), ctx).is_zero()


def test_scaled_transfer_kills_base_change():
    ctx = ctx_q2()
    for x in (witt(Q, 1), witt(Q, 3, -5), witt(Q, 2, 2, 7)):
        assert scaled_transfer(base_change(x, ctx), ctx).is_zero()


def test_transfer_lands_in_Ia():
    ctx = ctx_q2()
    r = F.coerce(ctx.ext, (0, 1))
    samples = [
        WittClass.from_entries(ctx.ext, (F.one(ctx.ext),)),
        WittClass.from_entries(ctx.ext, (r, F.coerce(ctx.ext, 3))),
    ]
    for s in samples:
        assert in_Ia(transfer(s, ctx), ctx)


def test_certificate_over_finite_field_exhaustive():
    f5 = F.finite_prime(5)
    ctx = make_context(f5, 2)
    gen = one_minus_a(ctx)
    for x in all_witt_classes(f5):
        y = principal_ideal_certificate(x, ctx)
        in_ideal = any(gen * z == x for z in all_witt_classes(f5))
        if in_ideal:
            assert y is not None and gen * y == x
        else:
            assert y is None


def test_certificate_over_q():
    ctx = ctx_q2()
    gen = one_minus_a(ctx)
    x = gen * witt(Q, 3)
    y = principal_ideal_certificate(x, ctx)
    assert y is not None and gen * y == x
    # <1> does not die under base change so it has no certificate
    assert principal_ideal_certificate(witt(Q, 1), ctx) is None


def test_certificate_field_mismatch():
    ctx = ctx_q2()
    with pytest.raises(FieldMismatch):
        principal_ideal_certificate(witt(F.reals(), 1), ctx)


@pytest.mark.parametrize("p,a", [(3, -1), (5, 2), (7, 3)])
def test_lam_exactness_exhaustive_finite(p, a):
    field = F.finite_prime(p)
    ctx = make_context(field, a)
    samples = all_witt_classes(field) + all_witt_classes(ctx.ext)
    rep = lam_exactness_check(ctx, samples)
    assert rep.passed, rep.lines()


@pytest.mark.parametrize("p,a", [(3, -1), (5, 2), (7, 3)])
def test_iota_is_zero_over_prime_fields(p, a):
    """Every element of F_p is a square in F_{p^2}, so base change kills
    exactly the classes of even rank."""
    ctx = make_context(F.finite_prime(p), a)
    for x in all_witt_classes(ctx.base):
        dead = iota_is_zero(x, ctx)
        assert dead == base_change(x, ctx).is_zero()
        assert dead == (sum(n for _, n in x.terms) % 2 == 0)


def test_iota_is_zero_over_the_reals():
    """W(R) -> W(C) kills exactly the classes of even signature."""
    ctx = make_context(F.reals(), -1)
    rng = random.Random(17)
    for _ in range(100):
        x = witt(ctx.base, *(rng.choice([1, -1, 2, -3]) for _ in range(rng.randint(0, 6))))
        dead = iota_is_zero(x, ctx)
        assert dead == base_change(x, ctx).is_zero()
        assert dead == (x.signature() % 2 == 0)


def test_lam_exactness_sampled_rational():
    ctx = ctx_q2()
    samples = [
        witt(Q, 1),
        witt(Q, 2),
        witt(Q, 1, -2),
        witt(Q, 3, -6),
        witt(Q, 5, -10, 7, -14),
    ]
    rep = lam_exactness_check(ctx, samples)
    assert rep.passed, rep.lines()


def test_large_counts_cost_their_distinct_entries():
    """Products, base change, transfers and the printer read (entry, count)
    pairs, so 2,027,025<1> is one pair; each answer is checked against
    scaling by an integer."""
    t = 2027025
    ctx = ctx_q2()
    t0 = time.perf_counter()
    assert witt(Q, 2) * (integer_class(t, Q) + witt(Q, 3)) == t * witt(Q, 2) + witt(Q, 6)
    assert base_change(integer_class(t, Q), ctx) == integer_class(t, ctx.ext)
    big = integer_class(t, ctx.ext) + sqrt_a_class(ctx.ext)
    assert transfer(big, ctx) == t * witt(Q, 2, 4) + transfer(sqrt_a_class(ctx.ext), ctx)
    assert scaled_transfer(big, ctx) == t * scaled_transfer(integer_class(1, ctx.ext), ctx) + witt(Q, 2, 4)
    assert str(integer_class(-t, F.reals())) == f"{t}*<-1>"
    # reading the |t| diagonal entries instead takes seconds
    assert time.perf_counter() - t0 < 2


def test_kernel_tests_read_counts():
    """iota_is_zero and principal_ideal_certificate read (entry, count)
    pairs, so 2,027,025<1> costs what <1> costs there."""
    ctx = ctx_q2()
    t = 2027025
    kernel = one_minus_a(ctx) * (integer_class(t, Q) * witt(Q, 3))
    for call, want in (
        (lambda: iota_is_zero(integer_class(t, Q) + witt(Q, 3), ctx), False),
        (lambda: principal_ideal_certificate(integer_class(t + 1, Q), ctx), None),
        (lambda: iota_is_zero(kernel, ctx), True),
    ):
        t0 = time.perf_counter()
        assert call() == want
        assert time.perf_counter() - t0 < 0.05
    y = principal_ideal_certificate(kernel, ctx)
    assert one_minus_a(ctx) * y == kernel


def test_negative_a_base_change():
    ctx = make_context(Q, Fraction(-1))
    # -1 is a square in Q(i), so <1> + <1> becomes hyperbolic there
    assert base_change(witt(Q, 1, 1), ctx).is_zero()
    # but <1> + <3> survives: x^2 + 3y^2 = 0 needs sqrt(-3) = i*sqrt(3)
    assert not base_change(witt(Q, 1, 3), ctx).is_zero()


@pytest.mark.parametrize("a, t, want", [
    (-1, 10, "5*<1>"),
    (-1, 12, "6*<1>"),
    (-1, -12, "6*<-1>"),
    (-1, 2027026, "1013513*<1>"),
    (-3, 12, "<2> + 5*<1>"),
])
def test_certificate_of_an_integer_class_past_the_rank_bound(a, t, want):
    """When a < 0 the multiplier has half the signature, so t<1> is
    certified for t of any size, and by the smallest key the equations
    allow."""
    ctx = make_context(Q, Fraction(a))
    x = integer_class(t, Q)
    y = principal_ideal_certificate(x, ctx)
    assert str(y) == want
    assert one_minus_a(ctx) * y == x


def test_certificate_over_the_reals():
    """Over R with a = -1, 1 - <a> = 2<1>: 4<1> has the multiplier 2<1>,
    and 3<1>, of odd signature, has none."""
    R = F.reals()
    ctx = make_context(R, -1)
    assert principal_ideal_certificate(integer_class(4, R), ctx) == integer_class(2, R)
    assert principal_ideal_certificate(integer_class(3, R), ctx) is None


_PRIMES_TO_43 = [p for p in range(2, 44) if all(p % q for q in range(2, p))]


def test_kernel_preimage_is_exactly_the_kernel():
    """3,200 seeded classes: half (1 - <a>)*y for y of rank 1-6 with
    entries +-{1, 2}*p*q (p, q primes <= 43, q may be 1), half such a
    class plus a random form.  Each class that the closed-form kernel test
    ``ker_iota_rational`` puts in ker(iota) gets a key y with
    (1 - <a>)*y = x; each other class gets None.  The two procedures share
    no code."""
    rng = random.Random("kernel-preimage")
    a_values = [-1, 2, -2, -3, 5, -7, 10, 17, 2310, -2310, 1001, -1001,
                3 * 5 * 7 * 11 * 13 * 17, -3 * 5 * 7 * 11 * 13 * 17 * 19]

    def form(rank):
        return witt(Q, *(Fraction(rng.choice((1, -1, 2, -2)) * rng.choice(_PRIMES_TO_43)
                                  * rng.choice([1] + _PRIMES_TO_43)) for _ in range(rank)))

    counts = {True: 0, False: 0}
    for i in range(3200):
        a = Fraction(rng.choice(a_values))
        gen = witt(Q, 1, -a)
        x = gen * form(rng.randint(1, 6))
        if i % 2:
            x = x + rng.choice((1, 2, 4)) * form(rng.choice((0, 1, 2, 2, 4)))
        key = places.wq_kernel_preimage(x.key, a)
        dead = places.ker_iota_rational(x.terms, a)
        counts[dead] += 1
        if dead:
            assert key is not None and gen * WittClass(Q, key) == x, (a, x)
        else:
            assert key is None, (a, x, key)
    assert min(counts.values()) > 600


def test_certificate_needs_a_prime_outside_the_support():
    """With a = -2310 no multiplier supported on the primes of a and of x
    exists; one auxiliary prime q with (a/q) = 1 is enough."""
    ctx = make_context(Q, Fraction(-2310))
    x = witt(Q, 2, 3, 3, 5, 10) + 5 * witt(Q, -1)
    y = principal_ideal_certificate(x, ctx)
    assert one_minus_a(ctx) * y == x
    assert {p for p, _ in y.key[1]} - {3, 5, 7, 11}


def test_certificate_of_a_class_with_residues_at_twelve_primes():
    """The equations are solved one prime at a time, so twelve residue
    primes cost milliseconds, not a search over their classes."""
    ctx = make_context(Q, Fraction(-2310))
    inert = [q for q in range(13, 400) if places._odd_primes(q) == (q,)
             and F._legendre(-2310, q) == -1][:12]
    x = one_minus_a(ctx) * witt(Q, *inert)
    assert len(x.key[1]) >= 12
    t0 = time.perf_counter()
    y = principal_ideal_certificate(x, ctx)
    assert time.perf_counter() - t0 < 0.1
    assert one_minus_a(ctx) * y == x
