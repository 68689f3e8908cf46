import json
import random
from collections import Counter
import time
from fractions import Fraction
from itertools import combinations
from math import comb, prod

import pytest

from wittloc import fields as F
from wittloc.engine import (
    FixedComponent,
    GroupDescriptor,
    LocalizationProblem,
    bott_residue,
    build_grassmannian_problem,
    build_projective_problem,
    exact_divide,
    problem_from_json,
    problem_to_json,
    push_to_base,
)
from wittloc import engine
from wittloc import euler as E
from wittloc.errors import (
    BadDimension,
    BadParameters,
    ExprSyntaxError,
    NonInvertibleNormalEuler,
    PresentationMismatch,
    UnsupportedIrrep,
    UnsupportedResidueField,
)
from wittloc.euler import (NIrrep, RHO, RHO0, RHO0_MINUS, RepSum, SL2nIrrep, euler_rep,
                           fundamental, generic_euler, n_rep, whitney)
from wittloc.exprs import parse_rep, parse_ring_expr, rep_str
from wittloc.quadext import make_context
from wittloc.rings import (
    GradedElement,
    LocalizedElement,
    bnn,
    bsl2n,
    from_int,
    from_witt,
    gen,
    integral_bsl2n,
    localize_element,
    one_elem,
    twisted_point,
    twisted_pushforward,
    zero_elem,
)
from wittloc.witt import WittClass, integer_class, square_class, witt, zero_class

from oracles import residue_by_evaluation, twisted_pullback, witt_divide_candidates

Q = F.rationals()


def test_exact_divide_monomials():
    zp = integral_bsl2n(2, Q)
    z1, z2 = gen(zp, "e1"), gen(zp, "e2")
    assert exact_divide(6 * z1 ** 3 * z2, 2 * z1) == 3 * z1 ** 2 * z2
    pres = bsl2n(2, Q)
    e1, e2 = gen(pres, "e1"), gen(pres, "e2")
    assert exact_divide(9 * e1 ** 3 * e2, 3 * e1) == 3 * e1 ** 2 * e2
    assert exact_divide(e1, e2) is None


def test_leading_coefficient_other_than_odd_t_is_rejected():
    """2<1> is a zero divisor in W(Q): 2<1, -2> = 0, so 6e1^3e2 / 2e1 is both
    3e1^2e2 and (3<1> + <1, -2>)e1^2e2.  <2> is not of the form t<1>.  Over
    R, where W(R) = Z, 2<1> still divides."""
    pres = bsl2n(2, Q)
    e1, e2 = gen(pres, "e1"), gen(pres, "e2")
    for d in (from_witt(pres, witt(Q, 2)), from_int(pres, 2)):
        with pytest.raises(BadParameters):
            exact_divide(6 * e1 ** 3 * e2, d * e1)
    R = F.reals()
    rp = bsl2n(2, R)
    r1, r2 = gen(rp, "e1"), gen(rp, "e2")
    assert exact_divide(6 * r1 ** 3 * r2, 2 * r1) == 3 * r1 ** 2 * r2
    assert exact_divide(5 * r1 ** 3 * r2, 2 * r1) is None


def test_exact_divide_by_an_integer_written_otherwise():
    """<2> = <1> over Q(sqrt 2), so e / <2>e is 1; <1 + sqrt 2> has
    signatures 1 and -1, so it is no t<1> and raises."""
    field = F.quad_ext(Q, 2)
    pres = bsl2n(1, field)
    e = gen(pres, "e")
    assert exact_divide(e, e * witt(field, 2)) == one_elem(pres)
    with pytest.raises(BadParameters):
        exact_divide(e, e * WittClass.from_entries(field, (F.coerce(field, (1, 1)),)))


def test_restricted_integer_written_otherwise_is_summed_over_z(monkeypatch):
    """<2> + <3> = 2<1> over Q(sqrt 6): the restricted class (<2> + <3>)e
    lifts to the integral carrier, and F@1's residue is 2<1>.  Each
    coefficient is read by integer_value once, for the carrier and the
    numerator both: it was read twice."""
    read, calls = WittClass.integer_value, []
    monkeypatch.setattr(WittClass, "integer_value", lambda x: calls.append(x) or read(x))
    comp = {"normal": "F@1", "restricted": "(<2>+<3>)*e"}
    for k, want in ((1, "2*<1>"), (3, "6*<1>")):
        doc = {"group": {"kind": "SL2n", "n": 1, "field": "Q(sqrt:6)"},
               "components": [dict(comp, id=f"pt{i}") for i in range(k)]}
        p = problem_from_json(doc)
        calls.clear()
        res = bott_residue(p)
        assert str(res.degree_zero) == want
        assert len(calls) == k


def test_n_problem_with_a_non_integer_rho_is_rejected():
    """normal = restricted = rho(1.5) gave <1>: the input was accepted and
    then ignored."""
    g = GroupDescriptor("N", 1, Q)
    with pytest.raises(BadParameters):
        rep = n_rep([(NIrrep(RHO, 1.5), 1)])
        bott_residue(LocalizationProblem(g, (FixedComponent("pt", "rational", rep, rep),)))


@pytest.mark.parametrize("kind, n", [("SL2n", True), ("SL2n", 1.0), ("SL2n", 2.0),
                                     ("N", True), ("N", 1.0)], ids=str)
def test_group_n_is_an_integer(kind, n):
    with pytest.raises(BadParameters, match=r"^n must be an integer"):
        GroupDescriptor(kind, n, Q)


def test_projective_builder_rejects_a_non_integer_n():
    """build_projective_problem(2, 1.0, Q) raised an untyped TypeError."""
    with pytest.raises(BadParameters, match=r"^n must be an integer"):
        build_projective_problem(2, 1.0, Q)


@pytest.mark.parametrize("m, ambient", [(2.0, 4), (True, 3), (2, 4.0)], ids=str)
def test_grassmannian_builder_rejects_a_non_integer_size(m, ambient):
    """m = 2.0 raised an untyped TypeError, and m = True and ambient = 4.0
    were accepted."""
    with pytest.raises(BadParameters, match=r"integer"):
        build_grassmannian_problem(m, ambient, 2 if ambient == 4 else 1, Q)


def test_hypersurface_builder_rejects_a_non_integer_N():
    with pytest.raises(BadParameters):
        engine.build_hypersurface_lines_problem(5.0, Q)


@pytest.mark.parametrize("M", [1.5, True, 3.0, "3"], ids=str)
def test_localization_multiplier_is_a_nonzero_integer(M):
    """M = 1.5 and M = True were accepted."""
    with pytest.raises(BadParameters, match=r"^M must be a nonzero integer"):
        LocalizationProblem(GroupDescriptor("N", 1, Q), (), M)


def test_even_euler_coefficient_of_an_n_component_is_rejected():
    """e(2*rho(2)) = 4e^2: 4<1> is a zero divisor in W(Q), so 4e^2 / 4e^2 has
    more quotients than <1> and none is certified."""
    g = GroupDescriptor("N", 1, Q)
    rep = n_rep([(NIrrep(RHO, 2), 2)])
    with pytest.raises(BadParameters):
        bott_residue(LocalizationProblem(g, (FixedComponent("pt", "rational", rep, rep),)))


@pytest.mark.parametrize("pres", [integral_bsl2n(4, Q), bsl2n(4, Q)], ids=str)
def test_exact_divide_a_quotient_of_1330_terms(pres):
    """Long division keeps no stack: s^18 has 1,330 terms, one per step."""
    es = [gen(pres, f"e{i}") for i in range(1, 5)]
    s = es[0] + es[1] + es[2] + es[3]
    den = 3 * es[0] ** 4 * (es[1] * es[1] - es[2] * es[2]) * es[3]
    s18 = s ** 18
    assert len(s18.coeffs) == 1330
    assert exact_divide(den * s18, den) == s18
    assert exact_divide(den * s18 + es[3], den) is None


def test_exact_divide_polynomials():
    pres = bsl2n(1, Q)
    e = gen(pres, "e")
    den = e ** 2 + 2 * e
    num = den * (from_witt(pres, witt(Q, 2)) * e + from_int(pres, 3))
    q = exact_divide(num, den)
    assert q is not None and q * den == num


DIVISION_FIELDS = [
    Q,
    F.reals(),
    F.finite_prime(7),
    F.finite_prime(13),
    F.quad_ext(F.finite_prime(7), 3),
    F.quad_ext(F.reals(), -1),
    *(F.quad_ext(Q, a) for a in (-1, -3, 2, 5)),
]


def _random_scalar(rng, field):
    if field.kind == F.FINITE_PRIME:
        return rng.randrange(1, field.p)
    if field.kind == F.QUAD_EXT and field.base.kind == F.FINITE_PRIME:
        p = field.base.p
        return rng.choice([(u, v) for u in range(p) for v in range(p) if (u, v) != (0, 0)])
    q = Fraction(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 6))
    if field.kind != F.QUAD_EXT:
        return q
    if field.base.kind == F.REALS:
        return (q, Fraction(rng.randint(-3, 3)))
    # mostly d or d*sqrt(a) with d of small height: the search's equality
    # tests over Q(sqrt a) are slow on forms of other entries
    if rng.random() < 0.15:
        return (Fraction(rng.randint(-3, 3)), Fraction(rng.choice([-1, 1])))
    d = Fraction(rng.choice([-1, 1]) * rng.randint(1, 10), rng.randint(1, 3))
    return (d, Fraction(0)) if rng.random() < 0.5 else (Fraction(0), d)


@pytest.mark.parametrize("field", DIVISION_FIELDS, ids=str)
def test_closed_form_quotient_agrees_with_the_candidate_search(field):
    """t*q == c, and q equals every candidate the search verifies; over the
    keyed fields, where the search is complete, it finds q exactly when the
    closed form does.  Every case is certified on every field."""
    rng = random.Random(f"exact-divide:{field}")
    keyed = not (field.kind == F.QUAD_EXT and field.base.kind == F.RATIONALS)
    ts = [-7, -5, -3, -1, 1, 3, 5, 7] + ([-15, 9, 15] if keyed else [])
    if field.kind == F.REALS:
        ts = [t for t in range(-6, 7) if t]
    pres = bsl2n(1, field)
    e = gen(pres, "e")
    for _ in range(30):
        t = rng.choice(ts)
        c = WittClass.from_entries(
            field, [F.coerce(field, _random_scalar(rng, field)) for _ in range(rng.randint(0, 3))]
        )
        if rng.random() < 0.5:
            c = t * c
        d = integer_class(t, field)
        got = exact_divide(from_witt(pres, c) * e * e, from_witt(pres, d) * e)
        q = None if got is None else got.coeffs.get((1,), zero_class(field))
        assert got is None or (got == from_witt(pres, q) * e and t * q == c)
        found = witt_divide_candidates(c, d)
        assert not found if q is None else all(r == q for r in found)
        assert q is None or found or not keyed


def test_projective_even_dimension_degree_one():
    for n in (1, 2, 3):
        res = bott_residue(build_projective_problem(2 * n, n, Q))
        assert res.degree_zero == integer_class(1, Q)


def test_projective_odd_dimension_degree_zero():
    for n in (1, 2, 3):
        res = bott_residue(build_projective_problem(2 * n - 1, n, Q))
        assert res.degree_zero is not None and res.degree_zero.is_zero()


def test_projective_bad_dimension():
    with pytest.raises(BadDimension):
        build_projective_problem(5, 1, Q)


@pytest.mark.parametrize("n", [0, -1])
def test_builders_reject_n_below_one_first(n):
    """n is checked before the dimension, the ambient and m, whose messages
    would name a value the caller did not get wrong."""
    for build in (lambda: build_projective_problem(2 * n, n, Q),
                  lambda: build_projective_problem(5, n, Q),
                  lambda: build_grassmannian_problem(1, 2 * n + 1, n, Q),
                  lambda: build_grassmannian_problem(2, 4, n, Q)):
        with pytest.raises(BadParameters, match=r"^n must be >= 1$"):
            build()


def test_grassmannian_table():
    for n in range(2, 5):
        for r in range(1, n):
            got = bott_residue(build_grassmannian_problem(2 * r, 2 * n, n, Q)).degree_zero
            assert got == integer_class(comb(n, r), Q)


def test_grassmannian_odd_plane_even_ambient_is_empty():
    prob = build_grassmannian_problem(3, 8, 4, Q)
    assert prob.components == ()
    assert bott_residue(prob).degree_zero.is_zero()


def test_component_order_does_not_matter():
    prob = build_grassmannian_problem(4, 8, 4, Q)
    reversed_prob = LocalizationProblem(prob.group, tuple(reversed(prob.components)), prob.M)
    assert bott_residue(prob).degree_zero == bott_residue(reversed_prob).degree_zero


def test_twisted_component_residue_and_push():
    ctx = make_context(Q, Fraction(3))
    g = GroupDescriptor("N", 1, Q)
    rep = n_rep([NIrrep(RHO, 3)])
    comp = FixedComponent("tw", ctx, rep, rep)
    res = bott_residue(LocalizationProblem(g, (comp,), M=3))
    assert res.degree_zero == square_class(Q, Fraction(2)) - square_class(Q, Fraction(6))


def test_mixed_rational_and_twisted_components():
    ctx = make_context(Q, Fraction(2))
    g = GroupDescriptor("N", 1, Q)
    rho1 = n_rep([NIrrep(RHO, 1)])
    rational = FixedComponent("pt", "rational", rho1, rho1)
    twisted = FixedComponent("tw", ctx, rho1, rho1)
    res = bott_residue(LocalizationProblem(g, (rational, twisted), M=2))
    expected = integer_class(1, Q) + square_class(Q, Fraction(2)) - square_class(Q, Fraction(4))
    assert res.degree_zero == expected


@pytest.mark.parametrize("M", [1, 2, 3])
def test_euler_coefficient_15_clears(M):
    """e(rho(3) + rho(5)) = 15 e^2; 15<1> is recognized as an integer class."""
    g = GroupDescriptor("N", 1, Q)
    rep = n_rep([NIrrep(RHO, 3), NIrrep(RHO, 5)])
    rational = FixedComponent("pt", "rational", rep, rep)
    assert bott_residue(LocalizationProblem(g, (rational,), M=M)).degree_zero == integer_class(1, Q)
    twisted = FixedComponent("tw", make_context(Q, Fraction(-3)), rep, rep)
    res = bott_residue(LocalizationProblem(g, (twisted,), M=M))
    assert res.degree_zero == square_class(Q, Fraction(2)) - square_class(Q, Fraction(-6))


def test_two_components_with_euler_coefficient_15():
    g = GroupDescriptor("N", 1, Q)
    rep15 = n_rep([NIrrep(RHO, 3), NIrrep(RHO, 5)])
    rho1 = n_rep([NIrrep(RHO, 1)])
    rational = FixedComponent("pt", "rational", rep15, rep15)
    twisted = FixedComponent("tw", make_context(Q, Fraction(2)), rho1, rho1)
    res = bott_residue(LocalizationProblem(g, (rational, twisted)))
    assert res.degree_zero == square_class(Q, Fraction(2))


@pytest.mark.parametrize("base, a", [(Q, Fraction(2)), (Q, Fraction(-3)),
                                     (F.finite_prime(5), 2), (F.finite_prime(7), 3)], ids=str)
def test_twisted_numerator_is_the_localized_pushforward_of_the_pullback(base, a):
    """For a BN class r restricted to a twisted point, the engine's numerator
    is pi_*(pi^* r) localized, which after x -> -1 is (<2> - <2a>)r."""
    ctx = make_context(base, F.coerce(base, a))
    g = GroupDescriptor("N", 1, base)
    tp, bn, carrier = twisted_point(ctx), bnn(1, base), bsl2n(1, base)
    two = F.coerce(base, 2)
    push_one = witt(base, two) - witt(base, F.mul(base, two, ctx.a))
    entries = [1, -1, 2, 3, 5, -6] if base == Q else list(range(1, base.p))
    rng = random.Random(14)
    normal = n_rep([NIrrep(RHO, 3)])
    for _ in range(60):
        r = zero_elem(bn)
        for _ in range(rng.randint(1, 3)):
            c = witt(base, *[F.coerce(base, rng.choice(entries)) for _ in range(rng.randint(1, 3))])
            r = r + from_witt(bn, c) * gen(bn, "x") ** rng.randint(0, 1) * gen(bn, "e") ** rng.randint(0, 3)
        numerator, _ = engine._component_fraction(FixedComponent("tw", ctx, normal, r), g, carrier)
        assert numerator == localize_element(twisted_pushforward(twisted_pullback(r, tp)), carrier)
        assert numerator == localize_element(r, carrier) * push_one


@pytest.mark.parametrize("base, a", [(Q, Fraction(3)), (F.finite_prime(7), 3)], ids=str)
def test_push_to_base_gives_the_component_numerator(base, a):
    """push_to_base is the one pushforward rule: a BN class r is pushed as
    pi_*(pi^* r), and r or a class on the twisted point, localized, is the
    numerator that bott_residue sums."""
    ctx = make_context(base, F.coerce(base, a))
    g = GroupDescriptor("N", 1, base)
    tp, bn, carrier = twisted_point(ctx), bnn(1, base), bsl2n(1, base)
    normal = n_rep([NIrrep(RHO, 3)])
    rng = random.Random(f"push:{base}")
    for _ in range(20):
        r = zero_elem(bn)
        for _ in range(rng.randint(1, 3)):
            c = integer_class(rng.randint(-3, 3), base) + witt(base, F.coerce(base, rng.randint(1, 6)))
            r = r + from_witt(bn, c) * gen(bn, "x") ** rng.randint(0, 1) * gen(bn, "e") ** rng.randint(0, 3)
        t = twisted_pullback(r, tp) * (one_elem(tp) + rng.randint(0, 1) * gen(tp, "y"))
        for x in (r, t):
            comp = FixedComponent("tw", ctx, normal, x)
            num, _ = engine._component_fraction(comp, g, carrier)
            assert localize_element(push_to_base(x, comp), carrier) == num
        comp = FixedComponent("tw", ctx, normal, r)
        assert push_to_base(r, comp) == push_to_base(twisted_pullback(r, tp), comp)
    other = FixedComponent("tw", make_context(base, F.coerce(base, 5)), normal, normal)
    with pytest.raises(PresentationMismatch):
        push_to_base(one_elem(tp), other)


def test_zero_normal_euler_rejected():
    g = GroupDescriptor("N", 1, Q)
    rep = n_rep([NIrrep(RHO0)])
    comp = FixedComponent("bad", "rational", rep, rep)
    with pytest.raises(NonInvertibleNormalEuler):
        engine._component_fraction(comp, g, bsl2n(1, Q))


def test_push_to_base_rules():
    ctx = make_context(Q, Fraction(2))
    comp = FixedComponent("tw", ctx, n_rep([NIrrep(RHO, 1)]), n_rep([NIrrep(RHO, 1)]))
    tp = twisted_point(ctx)
    pushed = push_to_base(one_elem(tp), comp)
    from wittloc.rings import bnn

    bn = bnn(1, Q)
    want = from_witt(bn, square_class(Q, Fraction(2))) + from_witt(
        bn, square_class(Q, Fraction(4))
    ) * gen(bn, "x")
    assert pushed == want
    assert push_to_base(gen(tp, "y"), comp).is_zero()
    e = gen(tp, "e")
    expect_e = from_witt(bn, square_class(Q, Fraction(2)) - square_class(Q, Fraction(4))) * gen(bn, "e")
    assert push_to_base(e, comp) == expect_e


def test_sl2n_restricted_class_other_than_the_normal_one():
    """Normal F@1*F@2 and restricted Sym(3)@1 over Q, n = 2: the residue is
    3e1^2 / (e1^2 - e2^2), which does not clear, and the component fraction
    is the same one."""
    g = GroupDescriptor("SL2n", 2, Q)
    comp = FixedComponent("pt", "rational", parse_rep("F@1*F@2", "SL2n", 2),
                          parse_rep("Sym(3)@1", "SL2n", 2))
    pres = bsl2n(2, Q)
    e1, e2 = gen(pres, "e1"), gen(pres, "e2")
    want = LocalizedElement(pres, 3 * e1 ** 2, e1 ** 2 - e2 ** 2)
    res = bott_residue(LocalizationProblem(g, (comp,)))
    assert res.value == want
    assert res.cleared is None and res.degree_zero is None
    num, den = engine._component_fraction(comp, g, pres)
    assert LocalizedElement(pres, num, whitney(den.items(), pres)) == want


def test_finite_field_flag():
    f7 = F.finite_prime(7)
    res = bott_residue(build_projective_problem(2, 1, f7))
    assert res.flags.get("finite_char")
    assert res.degree_zero == integer_class(1, f7)


def test_odd_characteristic_flag_on_a_quadratic_extension():
    f = F.quad_ext(F.finite_prime(7), 3)
    res = bott_residue(build_projective_problem(2, 1, f))
    assert res.flags == {"finite_char": True}
    assert res.degree_zero == integer_class(1, f)


@pytest.mark.parametrize("field, vacuous", [
    (Q, False), (F.reals(), False), (F.quad_ext(Q, 2), False),
    (F.quad_ext(Q, -1), True), (F.quad_ext(Q, -7), True), (F.finite_prime(7), True)], ids=str)
def test_even_m_is_flagged_where_one_has_finite_order(field, vacuous):
    """<1> has finite order exactly when k.modulus != 0; then an
    even M may kill the answer.  An odd M never does."""
    rho1 = n_rep([NIrrep(RHO, 1)])
    comps = (FixedComponent("pt", "rational", rho1, rho1),)
    g = GroupDescriptor("N", 1, field)
    assert bott_residue(LocalizationProblem(g, comps, M=2)).flags.get("potentially_vacuous", False) == vacuous
    assert "potentially_vacuous" not in bott_residue(LocalizationProblem(g, comps, M=3)).flags


def test_json_round_trip():
    prob = build_grassmannian_problem(2, 4, 2, Q)
    doc = problem_to_json(prob)
    back = problem_from_json(json.loads(json.dumps(doc)))
    assert bott_residue(back).degree_zero == bott_residue(prob).degree_zero


def test_json_twisted_round_trip():
    ctx = make_context(Q, Fraction(3))
    g = GroupDescriptor("N", 1, Q)
    rep = n_rep([NIrrep(RHO, 3)])
    prob = LocalizationProblem(g, (FixedComponent("tw", ctx, rep, rep),), M=3)
    back = problem_from_json(problem_to_json(prob))
    assert bott_residue(back).degree_zero == bott_residue(prob).degree_zero


def test_unsupported_residue_rejected():
    g = GroupDescriptor("N", 1, Q)
    rep = n_rep([NIrrep(RHO, 1)])
    comp = FixedComponent("bad", "cubic", rep, rep)
    with pytest.raises(UnsupportedResidueField):
        engine._component_fraction(comp, g, bsl2n(1, Q))


@pytest.mark.parametrize("kind, n, normal", [
    ("N", 1, ("F@1", "SL2n", 1)),
    ("SL2n", 1, ("rho(1)", "N", 1)),
    ("SL2n", 2, ("F@1", "SL2n", 3)),
    ("SL2n", 2, ("F@1", "SL2n", 1)),
], ids=["N-with-SL2n", "SL2n-with-N", "SL2n(2)-with-SL2n(3)", "SL2n(2)-with-SL2n(1)"])
def test_normal_representation_of_another_group_is_rejected(kind, n, normal):
    rep = parse_rep(*normal)
    comp = FixedComponent("pt", "rational", rep, rep)
    g = GroupDescriptor(kind, n, Q)
    with pytest.raises(BadParameters, match="normal representation"):
        LocalizationProblem(g, (comp,))
    with pytest.raises(BadParameters, match="normal representation"):
        engine._check_groups(comp, g)


@pytest.mark.parametrize("kind, n, normal", [("N", 1, "F@1"), ("SL2n", 1, "rho(1)"),
                                             ("SL2n", 2, "F@3")])
def test_json_normal_is_read_against_the_problem_group(kind, n, normal):
    """problem_from_json parses each normal for the problem's own group, so
    a literal of another group is a typed parse error, not an answer."""
    doc = {"group": {"kind": kind, "n": n, "field": "Q"},
           "components": [{"id": "pt", "normal": normal}]}
    with pytest.raises(ExprSyntaxError):
        problem_from_json(doc)


def test_restricted_representation_of_another_group_is_rejected():
    """The restricted RepSum cancels against the normal one, so both must
    be representations of one group."""
    rho1, f1 = n_rep([NIrrep(RHO, 1)]), parse_rep("F@1", "SL2n", 1)
    for kind, normal, restricted in (("N", rho1, f1), ("SL2n", f1, rho1)):
        g = GroupDescriptor(kind, 1, Q)
        comp = FixedComponent("pt", "rational", normal, restricted)
        with pytest.raises(BadParameters, match="restricted"):
            bott_residue(LocalizationProblem(g, (comp,)))


def _spy_on_euler_classes(monkeypatch):
    """Record the RepSums passed to euler_rep and generic_euler, whether
    called through the euler module or through a name the engine imported."""
    seen = {"euler_rep": [], "generic_euler": []}
    for name in seen:
        def spy(rep, field, real=getattr(E, name), calls=seen[name]):
            calls.append(rep)
            return real(rep, field)

        for module in (E, engine):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy)
    return seen


def test_n_components_build_no_euler_class(monkeypatch):
    """Every N check reads the irrep multiset: no component builds its
    normal or restricted Euler class or a generic square, whether the
    restricted class is the normal one in any order or another RepSum."""
    seen = _spy_on_euler_classes(monkeypatch)
    g = GroupDescriptor("N", 1, Q)
    rho1 = n_rep([NIrrep(RHO, 1)])
    rho31, rho13 = n_rep([NIrrep(RHO, 3), NIrrep(RHO, 1)]), n_rep([NIrrep(RHO, 1), NIrrep(RHO, 3)])
    comps = (
        FixedComponent("pt", "rational", rho1, rho1),
        FixedComponent("tw", make_context(Q, Fraction(2)), rho1, rho1),
        FixedComponent("pt2", "rational", rho31, rho13),
        FixedComponent("pt3", "rational", rho1, n_rep([NIrrep(RHO, 3)])),
    )
    res = bott_residue(LocalizationProblem(g, comps, M=2))
    assert rho13 == rho31
    assert seen == {"euler_rep": [], "generic_euler": []}
    assert res.degree_zero == integer_class(4, Q) + square_class(Q, Fraction(2))


def test_sl2n_components_test_the_generic_square_once(monkeypatch):
    """The zero test squares one irrep at a time: every generic_euler call
    the engine makes gets a single-irrep RepSum, once for each distinct
    irrep of each component, however often the irrep occurs."""
    seen = _spy_on_euler_classes(monkeypatch)
    twice = parse_rep("2*F@1 + Sym(3)@2 + F@1*F@2", "SL2n", 2)
    comps = build_grassmannian_problem(2, 5, 2, Q).components + (
        FixedComponent("twice", "rational", twice, twice),)
    bott_residue(LocalizationProblem(GroupDescriptor("SL2n", 2, Q), comps))
    singles = [RepSum(("SL2n", 2), ((irrep, 1),))
               for c in comps for irrep, _ in c.normal_rep.summands]
    assert len(singles) == 7
    assert seen == {"euler_rep": [], "generic_euler": singles}


def test_each_irrep_square_is_mapped_into_w_k_once_per_field(monkeypatch):
    """The zero test's squares are memoized per (one-irrep RepSum, field):
    solving Gr(4,11) twice over Q and twice over F_7 maps each of its 15
    distinct normal irreps into W(k) once per field, though generic_euler
    is still called for every irrep of every component."""
    generic_euler.cache_clear()
    mapped = []

    def spy(x, real=E.witt_image):
        mapped.append((x.pres.n, x.pres.field))
        return real(x)

    monkeypatch.setattr(E, "witt_image", spy)
    seen = _spy_on_euler_classes(monkeypatch)
    f7 = F.finite_prime(7)
    for field in (Q, f7):
        for _ in range(2):
            assert bott_residue(build_grassmannian_problem(4, 11, 5, field)).degree_zero == \
                integer_class(10, field)
    assert Counter(mapped) == {(5, Q): 15, (5, f7): 15}
    singles = set(seen["generic_euler"])
    assert len(singles) == 15 and all(len(rep.summands) == 1 for rep in singles)
    assert len(seen["generic_euler"]) == 4 * 10 * 8


@pytest.mark.parametrize("m, ambient, degree", [(6, 14, 35), (8, 16, 70)])
def test_large_grassmannians_solve_quickly(m, ambient, degree):
    """Gr(6,14) and Gr(8,16) over Q, whose whole-normal squares took 7.8 s
    and 462 s to expand, are each tested factor by factor."""
    prob = build_grassmannian_problem(m, ambient, ambient // 2, Q)
    start = time.perf_counter()
    res = bott_residue(prob)
    assert time.perf_counter() - start < 1
    assert res.degree_zero == integer_class(degree, Q)
    assert residue_by_evaluation(prob) == degree


def test_normal_irrep_with_no_closed_form_is_unsupported():
    """Sym^2 F_1 (x) F_2 has no Euler-class formula, so its zero test
    raises, though the restricted class would cancel it to 1."""
    rep = parse_rep("Sym(2)@1*Sym(1)@2", "SL2n", 2)
    comp = FixedComponent("c", "rational", rep, rep)
    with pytest.raises(UnsupportedIrrep):
        bott_residue(LocalizationProblem(GroupDescriptor("SL2n", 2, Q), (comp,)))


def _spy_on_divisions(monkeypatch):
    seen = []
    divide = engine.exact_divide

    def spy(num, den):
        seen.append(num.pres)
        return divide(num, den)

    monkeypatch.setattr(engine, "exact_divide", spy)
    return seen


def _spy_on_sums(monkeypatch):
    seen = []
    sum_fractions = engine._sum_fractions

    def spy(fractions, carrier):
        seen.append(carrier)
        return sum_fractions(fractions, carrier)

    monkeypatch.setattr(engine, "_sum_fractions", spy)
    return seen


@pytest.mark.parametrize("field", [Q, F.finite_prime(7)], ids=str)
def test_builder_problems_are_summed_over_z(monkeypatch, field):
    """Every Grassmannian fraction cancels to 1, so nothing is divided."""
    seen, sums = _spy_on_divisions(monkeypatch), _spy_on_sums(monkeypatch)
    res = bott_residue(build_grassmannian_problem(2, 5, 2, field))
    assert sums == [integral_bsl2n(2, field)] and seen == []
    assert res.degree_zero == integer_class(2, field)
    assert res.cleared.pres == bsl2n(2, field) and res.value is None


@pytest.mark.parametrize(
    "field, degree", [(F.finite_prime(7), 3), (Q, -1)], ids=["Fp:7", "Q"]
)
def test_division_that_holds_only_in_witt_falls_back(field, degree):
    pres = bsl2n(2, field)
    normal = parse_rep("F@1*F@2", "SL2n", 2)
    restricted = parse_ring_expr("0 - e1^2 + e2^2", pres)
    if field.kind == F.FINITE_PRIME:
        # -1 lifts to 3 over F_7; over Z/4, (3e1^2 + e2^2) / (e1^2 - e2^2) is
        # -1 = 3, as 4e2^2 = 0, so no sum needs a second pass over W(k)
        zp = integral_bsl2n(2, field)
        z1, z2 = gen(zp, "e1"), gen(zp, "e2")
        assert exact_divide(3 * z1 * z1 + z2 * z2, z1 * z1 - z2 * z2) == from_int(zp, -1)
    g = GroupDescriptor("SL2n", 2, field)
    res = bott_residue(LocalizationProblem(g, (FixedComponent("c", "rational", normal, restricted),)))
    assert res.degree_zero == square_class(field, Fraction(degree))
    assert res.degree_zero == integer_class(-1, field)
    assert res.cleared == from_int(pres, -1) and res.value is None


def test_ring_expression_with_a_non_integer_coefficient_stays_on_witt(monkeypatch):
    seen = _spy_on_divisions(monkeypatch)
    pres = bsl2n(1, Q)
    g = GroupDescriptor("SL2n", 1, Q)
    normal = parse_rep("F@1", "SL2n", 1)
    comps = (
        FixedComponent("a", "rational", normal, parse_ring_expr("<2>*e", pres)),
        FixedComponent("b", "rational", normal, normal),
    )
    res = bott_residue(LocalizationProblem(g, comps))
    assert seen and all(p == pres for p in seen)
    want = square_class(Q, Fraction(2)) + integer_class(1, Q)
    assert res.degree_zero == want
    assert res.cleared == from_witt(pres, want) and res.value is None


def _sl2n1_problem(field, normal):
    rep = parse_rep(normal, "SL2n", 1)
    g = GroupDescriptor("SL2n", 1, field)
    return LocalizationProblem(g, (FixedComponent("c", "rational", rep, rep),))


def test_odd_integer_denominator_clears_over_a_quadratic_extension():
    """3e^2 / 3e^2 over Q(sqrt 2) clears to <1>."""
    field = F.quad_ext(Q, 2)
    res = bott_residue(_sl2n1_problem(field, "Sym(3)@1"))
    assert res.cleared == one_elem(bsl2n(1, field))
    assert res.degree_zero == integer_class(1, field)


def test_euler_coefficient_225_clears_over_a_quadratic_extension():
    """Euler coefficients 15 and 225 over Q(sqrt 2) clear to <1>."""
    field = F.quad_ext(Q, 2)
    start = time.perf_counter()
    res = bott_residue(_sl2n1_problem(field, "Sym(5)@1 + F@1 + 2*F@1"))
    assert time.perf_counter() - start < 10.0
    assert res.degree_zero == integer_class(1, field)


def test_quotient_with_a_sqrt_a_coefficient_clears():
    """3<sqrt 5>e^2 / 3e^2 = <sqrt 5> over Q(sqrt 5): the quotient has
    signatures 1 and -1 and is none of c, -c, c<u> and <1>."""
    field = F.quad_ext(Q, 5)
    pres = bsl2n(1, field)
    rep = parse_rep("Sym(3)@1", "SL2n", 1)
    comp = FixedComponent("c", "rational", rep, parse_ring_expr("3<r>*e^2", pres))
    res = bott_residue(LocalizationProblem(GroupDescriptor("SL2n", 1, field), (comp,)))
    root = WittClass.from_entries(field, (F.coerce(field, (0, 1)),))
    assert res.cleared == from_witt(pres, root)
    assert res.degree_zero == root


def test_twist_key_is_rejected():
    doc = problem_to_json(build_projective_problem(2, 1, Q))
    assert "twist" not in doc["components"][0]
    doc["components"][0]["twist"] = "O(1)"
    with pytest.raises(UnsupportedIrrep):
        problem_from_json(doc)


def _lines_doc():
    return problem_to_json(engine.build_hypersurface_lines_problem(3, Q))


def _with(doc, path, value):
    """A copy of doc with the value at path (keys and list indices) replaced,
    or removed when value is ``_with``."""
    doc = json.loads(json.dumps(doc))
    *head, last = path
    target = doc
    for k in head:
        target = target[k]
    if value is _with:
        del target[last]
    else:
        target[last] = value
    return doc


TWISTED_DOC = {
    "group": {"kind": "N", "n": 1, "field": "Q"},
    "components": [{"id": "tw", "residue": {"twisted": {"a": "3"}}, "normal": "rho(3)"}],
    "invert": {"M": 3},
}
MALFORMED_PROBLEMS = [
    ("list document", [], "JSON object"),
    ("no group", _with(_lines_doc(), ["group"], _with), "'group'"),
    ("no field", _with(_lines_doc(), ["group", "field"], _with), "'field'"),
    ("no kind", _with(_lines_doc(), ["group", "kind"], _with), "'kind'"),
    ("group not an object", _with(_lines_doc(), ["group"], "SL2n"), "'group'"),
    ("n a word", _with(_lines_doc(), ["group", "n"], "two"), "'n'"),
    ("n a float", _with(_lines_doc(), ["group", "n"], 2.7), "2.7"),
    ("n a bool", _with(_lines_doc(), ["group", "n"], True), "'n'"),
    ("components not a list", _with(_lines_doc(), ["components"], {}), "'components'"),
    ("component a string", _with(_lines_doc(), ["components", 0], "F@1"), "component 0"),
    ("no normal", _with(_lines_doc(), ["components", 0, "normal"], _with), "'normal'"),
    ("normal a number", _with(_lines_doc(), ["components", 0, "normal"], 3), "'normal'"),
    ("twisted without a", _with(TWISTED_DOC, ["components", 0, "residue", "twisted"], {}), "'a'"),
    ("twisted a number", _with(TWISTED_DOC, ["components", 0, "residue", "twisted", "a"], 3), "'a'"),
    ("M a word", _with(TWISTED_DOC, ["invert", "M"], "x"), "'M'"),
    ("M a float", _with(TWISTED_DOC, ["invert", "M"], 3.0), "'M'"),
    ("invert a number", _with(TWISTED_DOC, ["invert"], 3), "'invert'"),
    ("unknown document key", _with(TWISTED_DOC, ["inverted"], {"M": 3}), "'inverted'"),
    ("unknown group key", _with(TWISTED_DOC, ["group", "rank"], 1), "'rank'"),
    ("misspelled restricted", _with(TWISTED_DOC, ["components", 0, "restricetd"], "rho(1)"),
     "'restricetd'"),
    ("unknown residue key", _with(TWISTED_DOC, ["components", 0, "residue", "split"], {}),
     "'split'"),
    ("residue without twisted", _with(TWISTED_DOC, ["components", 0, "residue"], {}),
     "'twisted'"),
    ("unknown twisted key", _with(TWISTED_DOC, ["components", 0, "residue", "twisted", "b"], "2"),
     "'b'"),
    ("unknown invert key", _with(TWISTED_DOC, ["invert", "N"], 2), "'N'"),
]


@pytest.mark.parametrize("doc, named", [c[1:] for c in MALFORMED_PROBLEMS],
                         ids=[c[0] for c in MALFORMED_PROBLEMS])
def test_malformed_problem_documents_are_typed_errors(doc, named):
    with pytest.raises(ExprSyntaxError, match=named):
        problem_from_json(doc)


def test_twist_is_unsupported_before_unknown_keys_are_named():
    doc = _with(TWISTED_DOC, ["components", 0, "twist"], "rho0-")
    with pytest.raises(UnsupportedIrrep):
        problem_from_json(_with(doc, ["components", 0, "restricetd"], "rho(1)"))


def test_m_on_an_sl2n_problem_is_rejected():
    g = GroupDescriptor("SL2n", 1, Q)
    with pytest.raises(BadParameters, match="M"):
        LocalizationProblem(g, (), M=3)
    with pytest.raises(BadParameters, match="M"):
        problem_from_json(dict(_lines_doc(), invert={"M": 3}))
    assert problem_from_json(dict(_lines_doc(), invert={"M": None})).M is None


def test_well_formed_problem_documents_still_read():
    assert bott_residue(problem_from_json(TWISTED_DOC)).degree_zero is not None
    assert problem_from_json(_with(TWISTED_DOC, ["invert", "M"], None)).M is None
    assert problem_from_json(_with(TWISTED_DOC, ["group", "n"], _with)).group.n == 1


def test_exact_divide_over_z_mod_n():
    """Over Z/4 (F_7) an odd leading coefficient is a unit: 3e1 divides e1^2
    with quotient 3e1, as 3 * 3 = 1.  An even one is a zero divisor."""
    zp = integral_bsl2n(2, F.finite_prime(7))
    z1, z2 = gen(zp, "e1"), gen(zp, "e2")
    assert exact_divide(z1 * z1 + z1 * z2, 3 * z1) == 3 * z1 + 3 * z2
    assert exact_divide(z1 * z1, z2) is None
    with pytest.raises(BadParameters):
        exact_divide(z1 * z1, 2 * z1)


LINES_COUNTS = {3: 3, 5: 105, 7: 10395, 9: 2027025}


@pytest.mark.parametrize(
    "N, field",
    [(N, f) for f in (Q, F.finite_prime(7), F.finite_prime(13)) for N in sorted(LINES_COUNTS)]
    + [(N, f) for f in (F.quad_ext(Q, 2), F.quad_ext(Q, -7)) for N in sorted(LINES_COUNTS)],
    ids=str,
)
def test_lines_on_hypersurfaces(N, field):
    """(2N-3)!!<1> lines on a degree-(2N-3) hypersurface in P^N; over F_q and
    Q(sqrt -7) its image, the count mod 4, 2 or 8."""
    res = bott_residue(engine.build_hypersurface_lines_problem(N, field))
    assert res.degree_zero == integer_class(LINES_COUNTS[N], field)
    assert res.cleared == from_int(bsl2n((N + 1) // 2, field), LINES_COUNTS[N])


def test_lines_problem_over_a_quadratic_extension_survives_json():
    """The printed coefficient of the N = 7 problem over Q(sqrt 2) is a sum of
    10395 terms <1> per component; parsing it back is linear in them."""
    field = F.quad_ext(Q, 2)
    doc = json.loads(json.dumps(problem_to_json(engine.build_hypersurface_lines_problem(7, field))))
    assert bott_residue(problem_from_json(doc)).degree_zero == integer_class(10395, field)


def test_lines_builder_needs_odd_n():
    for N in (1, 4):
        with pytest.raises(BadParameters):
            engine.build_hypersurface_lines_problem(N, Q)


def _minus_e1_squared_problem(field):
    pres = bsl2n(2, field)
    normal = parse_rep("F@1*F@2", "SL2n", 2)
    restricted = parse_ring_expr("0 - e1^2 + e2^2", pres)
    g = GroupDescriptor("SL2n", 2, field)
    return LocalizationProblem(g, (FixedComponent("c", "rational", normal, restricted),))


@pytest.mark.parametrize(
    "field, N",
    [(f, N) for f in (F.finite_prime(7), F.finite_prime(13), F.quad_ext(Q, 2), F.quad_ext(Q, -7))
     for N in (3, 5)] + [(F.finite_prime(7), None)],
    ids=str,
)
def test_integer_problems_are_summed_once_over_z_mod_n(monkeypatch, field, N):
    """Lines problems, and -e1^2 + e2^2 over F_7 (N = None), whose division
    by e1^2 - e2^2 holds only modulo 4."""
    if N is None:
        problem = _minus_e1_squared_problem(field)
    else:
        problem = engine.build_hypersurface_lines_problem(N, field)
    seen, sums = _spy_on_divisions(monkeypatch), _spy_on_sums(monkeypatch)
    res = bott_residue(problem)
    zp = integral_bsl2n(problem.group.n, field)
    assert seen and all(p == zp for p in seen)
    assert sums == [zp]
    assert res.degree_zero is not None and res.cleared.pres == bsl2n(problem.group.n, field)


ZN_FIELDS = [
    Q,
    F.finite_prime(5),
    F.finite_prime(7),
    F.quad_ext(F.finite_prime(3), -1),
    F.quad_ext(Q, 2),
    F.quad_ext(Q, -1),
    F.quad_ext(Q, -7),
]


def _random_integer_problem(rng, field):
    """An SL2n problem whose numerators are ring expressions with integer
    coefficients: a multiple of the denominator plus, often, a remainder."""
    n = rng.randint(1, 2)
    pres = bsl2n(n, field)
    comps = []
    for c in range(rng.randint(1, 3)):
        irreps = []
        for _ in range(rng.randint(1, 2)):
            i = rng.randint(1, n)
            if n == 2 and rng.random() < 0.4:
                irreps.append("F@1*F@2")
            else:
                irreps.append(rng.choice(["F", "Sym(3)", "F"]) + f"@{i}")
        normal = parse_rep(" + ".join(irreps), "SL2n", n)
        den = euler_rep(normal, field).value
        num = from_int(pres, rng.randint(-3, 3)) * den
        if rng.random() < 0.6:
            degree = sum(next(iter(den.coeffs)))
            for _ in range(rng.randint(1, 3)):
                i = rng.randint(0, degree)
                mono = (i, degree - i) if n == 2 else (degree,)
                num = num + GradedElement(pres, {mono: integer_class(rng.randint(-3, 3), field)})
        comps.append(FixedComponent(f"c{c}", "rational", normal, num))
    return LocalizationProblem(GroupDescriptor("SL2n", n, field), tuple(comps))


@pytest.mark.parametrize("field", ZN_FIELDS, ids=str)
def test_z_mod_n_sum_equals_the_witt_sum(field):
    """bott_residue sums over Z/N; the reference sums the fractions with
    witt_image'd numerators over W(k), where the denominators' irreps get
    their W(k) classes.  value, cleared and degree_zero agree."""
    rng = random.Random(f"z-mod-n:{field}")
    cleared_count = 0
    for _ in range(12):
        p = _random_integer_problem(rng, field)
        n = p.group.n
        zp, carrier = integral_bsl2n(n, field), bsl2n(n, field)
        comps = engine._integral_components(p, carrier, zp)
        assert all(c.restricted.pres == zp for c in comps if not isinstance(c.restricted, RepSum))
        fractions = [engine._component_fraction(c, p.group, zp) for c in comps]
        images = [(engine.witt_image(num), den) for num, den in fractions]
        total, D, cleared = engine._sum_fractions(images, carrier)
        value = LocalizedElement(carrier, total, D) if cleared is None else None
        degree_zero = None
        if cleared is not None and (cleared.is_zero() or cleared.degree() == 0):
            degree_zero = cleared.constant_coefficient()
        res = bott_residue(p)
        assert res.value == value
        assert res.cleared == cleared
        assert res.degree_zero == degree_zero
        cleared_count += cleared is not None
    assert 0 < cleared_count < 12


def _random_n_problem(rng, base):
    """An N-group problem with rational and twisted components over base."""
    if base.kind == F.FINITE_PRIME:
        a_pool = [a for a in range(2, base.p) if pow(a, (base.p - 1) // 2, base.p) != 1]
    else:
        a_pool = [Fraction(a) for a in (2, 3, 5, -1, -3)]
    comps = []
    for c in range(rng.randint(1, 4)):
        normal = rng.choice(["rho(1)", "rho(3)", "rho(1) + rho(3)", "2*rho(1)", "rho(5)"])
        rep = parse_rep(normal, "N")
        residue = "rational" if rng.random() < 0.4 else make_context(base, rng.choice(a_pool))
        comps.append(FixedComponent(f"c{c}", residue, rep, rep))
    M = rng.choice([None, 1, 3])
    return LocalizationProblem(GroupDescriptor("N", 1, base), tuple(comps), M)


def _random_sl2n_problem(rng, field):
    kind = rng.choice(["p", "gr", "lines", "ring"])
    if kind == "p":
        n = rng.randint(1, 3)
        return build_projective_problem(rng.choice([2 * n - 1, 2 * n]), n, field)
    if kind == "gr":
        n = rng.randint(2, 3)
        ambient = rng.choice([2 * n, 2 * n + 1])
        return build_grassmannian_problem(rng.randint(1, ambient - 1), ambient, n, field)
    if kind == "lines":
        N = rng.choice([3, 5])
        return engine.build_hypersurface_lines_problem(N, field)
    return _random_integer_problem(rng, field)


@pytest.mark.parametrize("field", [Q, F.finite_prime(7), F.quad_ext(Q, 2)], ids=str)
def test_json_round_trip_of_random_problems(field):
    rng = random.Random(f"json:{field}")
    for _ in range(10):
        problems = [_random_sl2n_problem(rng, field)]
        if field.kind != F.QUAD_EXT:  # twisted residues need a base field
            problems.append(_random_n_problem(rng, field))
        for p in problems:
            back = problem_from_json(json.loads(json.dumps(problem_to_json(p))))
            assert back == p
            got, want = bott_residue(back), bott_residue(p)
            assert (got.value, got.cleared, got.degree_zero) == (
                want.value, want.cleared, want.degree_zero
            )


@pytest.mark.parametrize("base", [Q, F.finite_prime(7), F.finite_prime(13)], ids=str)
def test_n_component_order_does_not_matter(base):
    rng = random.Random(f"n-order:{base}")
    for _ in range(15):
        p = _random_n_problem(rng, base)
        want = bott_residue(p).degree_zero
        for _ in range(2):
            shuffled = rng.sample(p.components, len(p.components))
            got = bott_residue(LocalizationProblem(p.group, tuple(shuffled), p.M)).degree_zero
            assert got == want


def _over(p, field):
    """The problem p over Q, carried to field through its JSON document."""
    doc = problem_to_json(p)
    doc["group"]["field"] = str(field)
    return problem_from_json(doc)


def _reduced(t, field):
    """t<1> in W(field), t read through Z/N, N = field.modulus."""
    N = field.modulus
    return integer_class(t % N if N else t, field)


# Sym^m F_i blocks of one rank, as (m, count) lists: e^2, 3e^2; e^3, 3e^3,
# 15e^3; swapping one for another scales a fraction by an odd ratio
RANK_BLOCKS = [
    [[(1, 2)], [(3, 1)]],
    [[(1, 3)], [(3, 1), (1, 1)], [(5, 1)]],
]


def _random_repsum_problem(rng):
    """An SL2n problem over Q whose restricted RepSums are the normal ones
    with single-factor blocks swapped for blocks of the same rank, so each
    fraction is an odd ratio such as 3, 5 or 1/15."""
    n = rng.randint(1, 3)
    comps = []
    for c in range(rng.randint(1, 3)):
        normal, restricted = [], []
        for i in range(1, n + 1):
            for _ in range(rng.randint(0, 2)):
                options = rng.choice(RANK_BLOCKS)
                for side in (normal, restricted):
                    side += [f"{k}*Sym({m})@{i}" for m, k in rng.choice(options)]
        if n > 1 and rng.random() < 0.5:
            pair = "F@1*F@2"
            normal.append(pair)
            restricted.append(pair)
        if not normal:
            normal = restricted = ["F@1"]
        comps.append(FixedComponent(f"c{c}", "rational", parse_rep(" + ".join(normal), "SL2n", n),
                                    parse_rep(" + ".join(restricted), "SL2n", n)))
    return LocalizationProblem(GroupDescriptor("SL2n", n, Q), tuple(comps))


ORACLE_FIELDS = [F.finite_prime(7), F.finite_prime(13), F.quad_ext(Q, 2), F.quad_ext(Q, -7)]
ORACLE_PROBLEMS = {
    "builder": lambda rng: _random_sl2n_problem(rng, Q),
    "repsum": _random_repsum_problem,
    "ring": lambda rng: _random_integer_problem(rng, Q),
}


@pytest.mark.parametrize("kind", sorted(ORACLE_PROBLEMS))
def test_cleared_sums_agree_with_evaluation_at_points(kind):
    """Every problem that clears over Q with a degree-0 answer t<1> has the
    value t at random points, and clears over F_p and Q(sqrt a) to the
    image of t through Z/N."""
    rng = random.Random(f"oracle:{kind}")
    checked = 0
    for i in range(25):
        p = ORACLE_PROBLEMS[kind](rng)
        res = bott_residue(p)
        if res.degree_zero is None:
            continue
        t = residue_by_evaluation(p, seed=i)
        assert t.denominator == 1 and res.degree_zero == integer_class(t.numerator, Q)
        for field in ORACLE_FIELDS:
            assert bott_residue(_over(p, field)).degree_zero == _reduced(t.numerator, field)
        checked += 1
    assert checked >= 8


TIER1_BUILDER_PROBLEMS = (
    [(f"P^{d} n={n}", lambda k, d=d, n=n: build_projective_problem(d, n, k))
     for n in (1, 2, 3) for d in (2 * n - 1, 2 * n)]
    + [(f"Gr({2 * r},{2 * n})", lambda k, r=r, n=n: build_grassmannian_problem(2 * r, 2 * n, n, k))
       for n in range(2, 5) for r in range(1, n)]
    + [("Gr(3,8)", lambda k: build_grassmannian_problem(3, 8, 4, k)),
       ("Gr(4,8)", lambda k: build_grassmannian_problem(4, 8, 4, k))]
    + [(f"lines N={N}", lambda k, N=N: engine.build_hypersurface_lines_problem(N, k))
       for N in (3, 5, 7, 9, 11, 13)]
)


@pytest.mark.parametrize("build", [b for _, b in TIER1_BUILDER_PROBLEMS],
                         ids=[label for label, _ in TIER1_BUILDER_PROBLEMS])
def test_builder_answers_agree_with_evaluation_at_points(build):
    t = residue_by_evaluation(build(Q))
    assert t.denominator == 1
    for field in [Q] + ORACLE_FIELDS:
        assert bott_residue(build(field)).degree_zero == _reduced(t.numerator, field)


def _random_rep(rng, group):
    """A RepSum of up to four random summands, equal irreps among them:
    Sym^m F_i and F_i (x) F_j over SL2^n, rho(m), rho0 and rho0- over N."""
    if group[0] == "N":
        pool = [NIrrep(RHO, m) for m in range(1, 6)] + [NIrrep(RHO0), NIrrep(RHO0_MINUS)]
    else:
        n = group[1]
        pool = [SL2nIrrep(tuple(m if j == i else 0 for j in range(1, n + 1)))
                for i in range(1, n + 1) for m in range(1, 6)]
        pool += [fundamental(n, i, j) for i, j in combinations(range(1, n + 1), 2)]
    return RepSum(group, tuple((rng.choice(pool), rng.randint(1, 3))
                               for _ in range(rng.randint(1, 4))))


def _rewritten(rep, rng):
    """(text, RepSum): rep's literal with each multiplicity split into parts
    and the parts shuffled, and what parse_rep reads from it."""
    parts = []
    for irrep, k in rep.summands:
        while k:
            j = rng.randint(1, k)
            parts.append(rep_str(RepSum(rep.group, ((irrep, j),))))
            k -= j
    rng.shuffle(parts)
    text = " + ".join(parts)
    return text, parse_rep(text, *rep.group)


@pytest.mark.parametrize("group", [("SL2n", 1), ("SL2n", 2), ("SL2n", 3), ("N",)], ids=str)
def test_a_rep_sum_is_its_irrep_multiset(group):
    """A RepSum and a rewriting of its literal are equal, hash equal, print
    alike, parse back to themselves and have the same Euler classes."""
    rng = random.Random(f"multiset:{group}")
    reordered = 0
    for _ in range(20):
        rep = _random_rep(rng, group)
        text, copy = _rewritten(rep, rng)
        reordered += text != rep_str(rep)
        assert copy == rep and hash(copy) == hash(rep) and rep_str(copy) == rep_str(rep)
        for r in (rep, copy):
            assert parse_rep(rep_str(r), *group) == r
        for field in (Q, F.finite_prime(7)):
            assert euler_rep(copy, field) == euler_rep(rep, field)
            assert generic_euler.__wrapped__(copy, field) == generic_euler(rep, field)
    assert reordered >= 10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_per_irrep_zero_test_agrees_with_the_whole_square(n):
    """The engine tests e(N) = 0 one distinct irrep at a time; on seeded
    RepSums it agrees with expanding the square of the whole class."""
    rng = random.Random(f"zero-test:{n}")
    fields = [Q, F.reals(), F.finite_prime(5), F.finite_prime(7),
              F.quad_ext(F.finite_prime(3), 2), F.quad_ext(Q, 2), F.quad_ext(Q, -7)]
    vanishing = 0
    for _ in range(30):
        rep = _random_rep(rng, ("SL2n", n))
        for field in fields:
            zero = engine._normal_class_vanishes(rep, field)
            assert zero == generic_euler(rep, field).is_zero(), (rep, field)
        vanishing += zero
    assert 0 < vanishing < 30


def _random_n_rep_problem(rng):
    """An N problem over Q at rational points whose restricted RepSums are the
    normal ones with some rho(1) raised to rho(3) or rho(5), so each fraction
    is an odd integer."""
    comps = []
    for c in range(rng.randint(1, 3)):
        ms = [rng.choice([1, 1, 3, 5]) for _ in range(rng.randint(1, 4))]
        raised = [rng.choice([3, 5]) if m == 1 and rng.random() < 0.4 else m for m in ms]
        comps.append(FixedComponent(f"c{c}", "rational", n_rep([NIrrep(RHO, m) for m in ms]),
                                    n_rep([NIrrep(RHO, m) for m in raised])))
    return LocalizationProblem(GroupDescriptor("N", 1, Q), tuple(comps), rng.choice([None, 1, 3]))


@pytest.mark.parametrize("make", [_random_repsum_problem, _random_n_rep_problem],
                         ids=["SL2n", "N"])
def test_rewritten_rep_sums_have_the_same_residue(make):
    """A problem whose RepSums are all rewritten (``_rewritten``) is the same
    problem: bott_residue and the evaluation oracle give the same answer,
    which agree with each other where the sum clears."""
    rng = random.Random(f"rewritten:{make.__name__}")
    cleared = 0
    for i in range(15):
        p = make(rng)
        copy = LocalizationProblem(p.group, tuple(
            FixedComponent(c.id, c.residue, _rewritten(c.normal_rep, rng)[1],
                           _rewritten(c.restricted, rng)[1]) for c in p.components), p.M)
        assert copy == p
        got, want = bott_residue(copy), bott_residue(p)
        assert (got.value, got.cleared, got.degree_zero) == (want.value, want.cleared, want.degree_zero)
        t = residue_by_evaluation(copy, seed=i)
        assert t == residue_by_evaluation(p, seed=i)
        if want.degree_zero is not None:
            assert t.denominator == 1 and want.degree_zero == integer_class(t.numerator, Q)
            cleared += 1
    assert cleared >= 5


@pytest.mark.parametrize("field", [Q, F.finite_prime(7)], ids=str)
def test_each_problem_divides_at_most_once(monkeypatch, field):
    """Grassmannian and projective fractions all cancel to 1, so they divide
    nothing; any other problem makes one division, by e(L)."""
    seen = _spy_on_divisions(monkeypatch)
    for label, build in TIER1_BUILDER_PROBLEMS:
        seen.clear()
        p = build(field)
        bott_residue(p)
        divided = [integral_bsl2n(p.group.n, field)] if label.startswith("lines") else []
        assert seen == divided
    rng = random.Random(f"one-division:{field}")
    for _ in range(20):
        p = rng.choice([_random_sl2n_problem, _random_integer_problem, _random_n_problem])(rng, field)
        seen.clear()
        bott_residue(p)
        assert len(seen) <= 1


@pytest.mark.parametrize("N, field", [(N, f) for f in (Q, F.finite_prime(7)) for N in (11, 13)],
                         ids=str)
def test_lines_beyond_the_old_wall(N, field):
    """N = 13 took about 2 min while the sum folded its denominators."""
    count = prod(range(2 * N - 3, 0, -2))
    start = time.perf_counter()
    res = bott_residue(engine.build_hypersurface_lines_problem(N, field))
    assert time.perf_counter() - start < 10.0
    assert res.degree_zero == integer_class(count, field)


@pytest.mark.parametrize("field", [Q, F.finite_prime(7)], ids=str)
def test_each_residue_holds_its_answer_once(field):
    """Exactly one of value and cleared is set.  A sum that does not clear
    is value = sum / e(L) with exponent 1, L each normal irrep's largest
    multiplicity and sum the numerators times the classes of the irreps of
    L that their denominators lack; a sum that clears is cleared, with
    cleared * e(L) = sum."""
    rng = random.Random(f"one-answer:{field}")
    makers = [_random_sl2n_problem, _random_integer_problem, _random_n_problem]
    problems = [make(rng, field) for make in makers for _ in range(10)]
    if field == Q:
        problems += [make(rng) for make in (_random_repsum_problem, _random_n_rep_problem)
                     for _ in range(10)]
    outcomes = Counter()
    for p in problems:
        res = bott_residue(p)
        assert (res.value is None) != (res.cleared is None)
        carrier = bsl2n(p.group.n, field)
        fractions = [engine._component_fraction(c, p.group, carrier) for c in p.components]
        L = Counter()
        for _, den in fractions:
            L |= den
        # a numerator of None stands for 1
        total = sum(((one_elem(carrier) if num is None else num)
                     * whitney((L - Counter(den)).items(), carrier) for num, den in fractions),
                    zero_elem(carrier))
        if res.cleared is None:
            assert res.value == LocalizedElement(carrier, total, whitney(L.items(), carrier))
            assert res.degree_zero is None
        else:
            assert res.cleared * whitney(L.items(), carrier) == total
        outcomes[res.cleared is None] += 1
    assert outcomes[True] >= 3 and outcomes[False] >= 3


def test_problem_from_json_reads_each_representation_literal_once(monkeypatch):
    """A restricted literal that is absent or equal to the normal one is the
    normal RepSum itself; only a different literal is parsed again."""
    import wittloc.exprs as X

    calls = []
    real = X.parse_rep
    monkeypatch.setattr(X, "parse_rep", lambda *args: calls.append(args[0]) or real(*args))
    doc = {"group": {"kind": "N", "n": 1, "field": "Q"}, "components": [
        {"id": "a", "normal": "rho(1) + rho(3)"},
        {"id": "b", "normal": "rho(3)", "restricted": "rho(3)",
         "residue": {"twisted": {"a": "2"}}},
        {"id": "c", "normal": "rho(5)", "restricted": "rho(1)"},
        {"id": "d", "normal": "rho(1)", "restricted": "3*e"}]}
    p = problem_from_json(doc)
    # "3*e" names no irrep first, so it is read as a ring expression only
    assert calls == ["rho(1) + rho(3)", "rho(3)", "rho(5)", "rho(1)", "rho(1)"]
    assert p.components[0].restricted is p.components[0].normal_rep
    assert p.components[1].restricted is p.components[1].normal_rep
    assert p.components[2].restricted == n_rep([NIrrep(RHO, 1)])
    assert isinstance(p.components[3].restricted, GradedElement)


@pytest.mark.parametrize("restricted, message", [
    ("rho(3", "unexpected end of expression (at offset 5)"),
    ("rho(3) + e", "unknown irrep 'e' (at offset 9)"),
    ("2*F@1", "unknown irrep 'F' (at offset 2)"),
    ("3*rho", "unexpected end of expression (at offset 5)"),
    ("e + rho(1)", "unknown generator 'rho' (at offset 4)"),
])
def test_the_restricted_reader_is_chosen_by_the_first_name(restricted, message):
    """An irrep name first (rho, rho0, Sym, F) makes a representation
    literal, whose own parse error is reported; any other text is a ring
    expression.  F is an SL2n irrep, so over N it is an unknown irrep."""
    doc = {"group": {"kind": "N", "field": "Q"},
           "components": [{"normal": "rho(3)", "restricted": restricted}]}
    with pytest.raises(ExprSyntaxError) as err:
        problem_from_json(doc)
    assert str(err.value) == message


@pytest.mark.parametrize("field", [Q, F.finite_prime(7)], ids=str)
def test_a_cancelled_numerator_is_none_and_never_multiplied(monkeypatch, field):
    """A restricted RepSum that cancels its whole normal class leaves the
    numerator 1, carried as None: no <1> is built and nothing multiplied by
    it, and the twisted numerator is the localized pi_*(1) itself."""
    g = GroupDescriptor("N", 1, field)
    carrier = bsl2n(1, field)
    rep = n_rep([NIrrep(RHO, 1), NIrrep(RHO, 3)])
    ctx = make_context(field, F.coerce(field, 3))
    built = []
    real = E.one_elem
    monkeypatch.setattr(E, "one_elem", lambda pres: built.append(pres) or real(pres))
    num, den = engine._component_fraction(FixedComponent("r", "rational", rep, rep), g, carrier)
    assert num is None and dict(den) == {}
    num, den = engine._component_fraction(FixedComponent("t", ctx, rep, rep), g, carrier)
    assert built == [] and dict(den) == {}
    assert num == localize_element(engine.twisted_push_unit(ctx), carrier)
    monkeypatch.undo()
    # the residue reads None as 1: <1> from the rational point, pi_*(1) = <2> - <2a>
    res = bott_residue(LocalizationProblem(g, (FixedComponent("r", "rational", rep, rep),
                                               FixedComponent("t", ctx, rep, rep))))
    two = F.coerce(field, 2)
    want = witt(field, 1, two) - witt(field, F.mul(field, two, ctx.a))
    assert res.degree_zero == want
