"""End-to-end acceptance checks.  Each test prints a single pass/fail line
and enforces the stated runtime budget."""

import random
import time
from fractions import Fraction
from itertools import product
from math import comb

from oracles import bn_naive_mul, fp_witt_equivalent, twisted_pullback

from wittloc import fields as F
from wittloc.engine import (
    FixedComponent,
    LocalizationProblem,
    bott_residue,
    build_grassmannian_problem,
    build_projective_problem,
    push_to_base,
)
from wittloc.euler import (
    NIrrep,
    RHO,
    SL2nIrrep,
    double_factorial,
    euler_rep,
    fundamental,
    n_rep,
    sl2n_rep,
)
from wittloc.quadext import all_witt_classes, lam_exactness_check, make_context
from wittloc.rings import (
    GradedElement,
    bnn,
    bsl2n,
    from_int,
    from_witt,
    gen,
    one_elem,
    twisted_point,
    twisted_pushforward,
)
from wittloc.witt import WittClass, integer_class, square_class, witt

Q = F.rationals()


def report(number, name, ok):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_localization_table():
    budget_ok = True
    value_ok = True
    cases = []
    for n in (1, 2, 3):
        cases.append(("p", (2 * n, n), integer_class(1, Q)))
        cases.append(("p", (2 * n - 1, n), integer_class(0, Q)))
    for n in range(2, 5):
        for r in range(1, n):
            cases.append(("gr", (2 * r, 2 * n, n), integer_class(comb(n, r), Q)))
            cases.append(("gr", (2 * r + 1, 2 * n, n), integer_class(0, Q)))
            cases.append(("gr", (2 * r, 2 * n + 1, n), integer_class(comb(n, r), Q)))
            cases.append(("gr", (2 * r + 1, 2 * n + 1, n), integer_class(comb(n, r), Q)))
    for kind, params, expected in cases:
        t0 = time.perf_counter()
        if kind == "p":
            prob = build_projective_problem(params[0], params[1], Q)
        else:
            prob = build_grassmannian_problem(params[0], params[1], params[2], Q)
        got = bott_residue(prob).degree_zero
        elapsed = time.perf_counter() - t0
        if got != expected:
            value_ok = False
        if elapsed >= 1.0:
            budget_ok = False
    report(1, "projective and Grassmannian degrees", value_ok and budget_ok)


def test_criterion_2_finite_field_oracle():
    t0 = time.perf_counter()
    ok = True
    for p in (3, 5, 7, 11):
        field = F.finite_prime(p)
        s = F.least_nonresidue(p)
        forms = [()]
        for rank in range(1, 5):
            forms.extend(product((1, s), repeat=rank))
        for e1 in forms:
            x1 = witt(field, *e1)
            for e2 in forms:
                x2 = witt(field, *e2)
                if (x1 == x2) != fp_witt_equivalent(e1, e2, p):
                    ok = False
    elapsed = time.perf_counter() - t0
    report(2, "Witt equality vs isometry-search oracle", ok and elapsed < 30)


def test_criterion_3_exact_triangle():
    t0 = time.perf_counter()
    ok = True
    for p, a in ((3, -1), (5, 2), (7, 3)):
        field = F.finite_prime(p)
        ctx = make_context(field, a)
        samples = all_witt_classes(field) + all_witt_classes(ctx.ext)
        ok = ok and lam_exactness_check(ctx, samples).passed
    rng = random.Random(101)
    pool = [1, -1, 2, -2, 3, 5, -5, 6, 7, 10, -15]
    for a in (Fraction(2), Fraction(-1)):
        ctx = make_context(Q, a)
        gen_cls = witt(Q, 1, -a)
        samples = []
        while len(samples) < 50:
            entries = [Fraction(rng.choice(pool)) for _ in range(rng.randint(0, 3))]
            samples.append(witt(Q, *entries))
            samples.append(gen_cls * witt(Q, *entries))
        ok = ok and lam_exactness_check(ctx, samples[:50]).passed
    elapsed = time.perf_counter() - t0
    report(3, "three-term exactness for quadratic extensions", ok and elapsed < 10)


def test_criterion_4_presentation_relations_and_oracle():
    t0 = time.perf_counter()
    a = Fraction(3)
    ctx = make_context(Q, a)
    tp = twisted_point(ctx)
    bn = bnn(1, Q)
    one = one_elem(bn)
    x, e = gen(bn, "x"), gen(bn, "e")
    y, et = gen(tp, "y"), gen(tp, "e")
    ia_gen = from_witt(bn, witt(Q, 2, 2 * a))  # the trace form generates I_a
    ia_tp = from_witt(tp, witt(Q, 2, 2 * a))
    relations_ok = (
        (x * x - one).is_zero()
        and ((one + x) * e).is_zero()
        and (y * y - from_witt(tp, 2 * (witt(Q, 1) - witt(Q, a)))).is_zero()
        and (ia_tp * y).is_zero()
        and (ia_tp * et).is_zero()
        and y * y * et == 4 * et
    )

    coeff_sample = [
        witt(Q, 1),
        witt(Q, -1),
        witt(Q, 2),
        witt(Q, 1, 1),
        witt(Q, 3, -5),
        witt(Q, 2, 2, 7),
    ]
    oracle_ok = True
    monos = [(ax, m) for ax in range(0, 7) for m in range(0, 7) if ax + m <= 6]
    for (a1, m1), (a2, m2) in product(monos, repeat=2):
        for c1, c2 in ((coeff_sample[(a1 + m1) % 6], coeff_sample[(a2 + m2 + 3) % 6]),):
            lhs = (from_witt(bn, c1) * x ** a1 * e ** m1) * (
                from_witt(bn, c2) * x ** a2 * e ** m2
            )
            naive = bn_naive_mul({(a1, m1): c1}, {(a2, m2): c2})
            rhs = GradedElement(bn, {(k[0], k[1]): c for k, c in naive.items()})
            if lhs != rhs:
                oracle_ok = False
    elapsed = time.perf_counter() - t0
    report(4, "presentation normal forms vs naive rewriting", relations_ok and oracle_ok and elapsed < 20)


def test_criterion_5_twisted_pushforward():
    """pi_* rules and the projection formula pi_*(pi^*b * t) = b * pi_*(t)
    over Q(sqrt 2), F_5(sqrt 2) and F_7(sqrt 3)."""
    t0 = time.perf_counter()
    rng = random.Random(202)
    rep = n_rep([NIrrep(RHO, 1)])
    formulas_ok = proj_ok = True
    for field, a, pool in (
        (Q, Fraction(2), [1, -1, 2, -2, 3, 5, -6]),
        (F.finite_prime(5), 2, [1, 2, 3, 4]),
        (F.finite_prime(7), 3, [1, 2, 3, 4, 5, 6]),
    ):
        ctx = make_context(field, F.coerce(field, a))
        comp = FixedComponent("tw", ctx, rep, rep)
        tp = twisted_point(ctx)
        bn = bnn(1, field)
        two = F.coerce(field, 2)
        two_cls, two_a_cls = square_class(field, two), square_class(field, F.mul(field, two, ctx.a))
        formulas_ok = formulas_ok and (
            push_to_base(one_elem(tp), comp)
            == from_witt(bn, two_cls) + from_witt(bn, two_a_cls) * gen(bn, "x")
            and push_to_base(gen(tp, "e"), comp)
            == from_witt(bn, two_cls - two_a_cls) * gen(bn, "e")
            and push_to_base(gen(tp, "y"), comp).is_zero()
        )

        def draw():
            return witt(field, *[F.coerce(field, rng.choice(pool)) for _ in range(rng.randint(0, 2))])

        for _ in range(200):
            b = from_witt(bn, draw()) * gen(bn, "x") ** rng.randint(0, 1) * gen(bn, "e") ** rng.randint(0, 2)
            t = from_witt(tp, draw()) * gen(tp, "y") ** rng.randint(0, 1) * gen(tp, "e") ** rng.randint(0, 2)
            if twisted_pushforward(twisted_pullback(b, tp) * t) != b * twisted_pushforward(t):
                proj_ok = False
    elapsed = time.perf_counter() - t0
    report(5, "twisted-point pushforward and projection formula", formulas_ok and proj_ok and elapsed < 5)


def test_criterion_6_euler_formulas():
    t0 = time.perf_counter()
    pres1 = bsl2n(1, Q)
    e = gen(pres1, "e")
    ok = True
    for m in (3, 5, 7, 9):
        val = euler_rep(sl2n_rep(1, [SL2nIrrep((m,))]), Q)
        ok = ok and val.value == from_int(pres1, double_factorial(m)) * e ** ((m + 1) // 2)
    ok = ok and euler_rep(sl2n_rep(1, [SL2nIrrep((1,))]), Q).value == e
    for m in (2, 4, 6, 8):
        ok = ok and euler_rep(sl2n_rep(1, [SL2nIrrep((m,))]), Q).value.is_zero()
    pres2 = bsl2n(2, Q)
    e1, e2 = gen(pres2, "e1"), gen(pres2, "e2")
    ok = ok and euler_rep(sl2n_rep(2, [fundamental(2, 1, 2)]), Q).value == e1 ** 2 - e2 ** 2
    bn = bnn(1, Q)
    eb = gen(bn, "e")
    for m in range(1, 7):
        val = euler_rep(n_rep([NIrrep(RHO, m)]), Q)
        ok = ok and val.known_square == from_int(bn, m * m) * eb * eb
    elapsed = time.perf_counter() - t0
    report(6, "closed-form Euler classes", ok and elapsed < 1)


def test_criterion_7_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(303)
    pool = [1, -1, 2, -2, 3, 5, -6, 7]

    def rand_class(field, max_rank=3):
        if field.kind == "Fp":
            entries = [rng.randrange(1, field.p) for _ in range(rng.randint(0, max_rank))]
        else:
            entries = [Fraction(rng.choice(pool)) for _ in range(rng.randint(0, max_rank))]
        return witt(field, *entries)

    ok = True
    # canonicalization congruence and hyperbolic absorption
    for field in (Q, F.reals(), F.finite_prime(7)):
        for _ in range(200):
            x = rand_class(field, 4)
            entries = list(x.entries)
            rng.shuffle(entries)
            if field.kind == "Fp":
                entries = [c * rng.randrange(1, field.p) ** 2 for c in entries]
                c = rng.randrange(1, field.p)
                pad = (c, (-c) % field.p)
            else:
                entries = [c * rng.choice([1, 4, 9]) for c in entries]
                c = Fraction(rng.choice(pool))
                pad = (c, -c)
            ok = ok and WittClass.from_entries(field, tuple(entries)) == x
            ok = ok and WittClass.from_entries(field, tuple(x.entries) + pad) == x

    # ring laws: 1000 random triples per presentation
    from wittloc.rings import generator_names

    def rand_elem(pres):
        names = generator_names(pres)
        out = from_witt(pres, rand_class(pres.field, 2))
        for _ in range(rng.randint(0, 2)):
            t = from_witt(pres, rand_class(pres.field, 2))
            for _ in range(rng.randint(0, 2)):
                t = t * gen(pres, rng.choice(names))
            out = out + t
        return out

    presentations = (
        bsl2n(2, Q),
        bnn(1, Q),
        bnn(2, F.finite_prime(5)),
        twisted_point(make_context(Q, Fraction(2))),
    )
    for pres in presentations:
        for _ in range(1000):
            x, y, z = rand_elem(pres), rand_elem(pres), rand_elem(pres)
            if x * (y + z) != x * y + x * z or (x * y) * z != x * (y * z) or x * y != y * x:
                ok = False
                break

    # engine: component-order invariance and empty fixed locus
    prob = build_grassmannian_problem(4, 8, 4, Q)
    flipped = LocalizationProblem(prob.group, tuple(reversed(prob.components)), prob.M)
    ok = ok and bott_residue(prob).degree_zero == bott_residue(flipped).degree_zero
    empty = build_projective_problem(3, 2, Q)
    res = bott_residue(empty)
    ok = ok and res.degree_zero is not None and res.degree_zero.is_zero()

    elapsed = time.perf_counter() - t0
    report(7, "randomized property suites", ok and elapsed < 60)
