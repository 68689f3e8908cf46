import json
import time
from fractions import Fraction
from math import comb

import pytest

from wittloc import fields as F
from wittloc.engine import (
    FixedComponent,
    GroupDescriptor,
    LocalizationProblem,
    bott_residue,
    build_grassmannian_problem,
    build_projective_problem,
    component_residue,
    exact_divide,
    problem_from_json,
    problem_to_json,
    push_to_base,
    _divide_rational_by_int,
    _integer_e_poly_to_base,
)
from wittloc import engine
from wittloc.errors import (
    BadDimension,
    BadParameters,
    NonInvertibleNormalEuler,
    UnsupportedResidueField,
)
from wittloc.euler import NIrrep, RHO, RHO0, n_rep
from wittloc.exprs import parse_rep, parse_ring_expr
from wittloc.quadext import make_context
from wittloc.rings import (
    GradedElement,
    LocalizedElement,
    bsl2n,
    e_star,
    from_int,
    from_witt,
    gen,
    integral_bsl2n,
    one_elem,
    twisted_point,
)
from wittloc.witt import integer_class, square_class, witt, zero_class

Q = F.rationals()


def test_exact_divide_monomials():
    pres = bsl2n(2, Q)
    e1, e2 = gen(pres, "e1"), gen(pres, "e2")
    num = 6 * e1 ** 3 * e2
    den = 2 * e1
    q = exact_divide(num, den)
    assert q == 3 * e1 ** 2 * e2
    assert exact_divide(e1, e2) is None


def test_exact_divide_polynomials():
    pres = bsl2n(1, Q)
    e = gen(pres, "e")
    den = e ** 2 + 2 * e
    num = den * (from_witt(pres, witt(Q, 2)) * e + from_int(pres, 3))
    q = exact_divide(num, den)
    assert q is not None and q * den == num


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


def test_integer_denominator_pushes_to_base():
    ctx = make_context(Q, Fraction(-3))
    x = GradedElement(twisted_point(ctx, inverted=True), {(0, 1): integer_class(13, Q)})
    assert _integer_e_poly_to_base(x) == GradedElement(bsl2n(1, Q), {(1,): integer_class(13, Q)})


def test_zero_normal_euler_rejected():
    g = GroupDescriptor("N", 1, Q)
    rep = n_rep([NIrrep(RHO0)])
    comp = FixedComponent("bad", "rational", rep, rep)
    with pytest.raises(NonInvertibleNormalEuler):
        component_residue(comp, g)


def test_push_to_base_rules():
    ctx = make_context(Q, Fraction(2))
    g = GroupDescriptor("N", 1, Q)
    comp = FixedComponent("tw", ctx, n_rep([NIrrep(RHO, 1)]), n_rep([NIrrep(RHO, 1)]))
    tp = twisted_point(ctx)
    pushed = push_to_base(one_elem(tp), comp, g)
    from wittloc.rings import bnn

    bn = bnn(1, Q)
    want = from_witt(bn, square_class(Q, Fraction(2))) + from_witt(
        bn, square_class(Q, Fraction(4))
    ) * gen(bn, "x")
    assert pushed == want
    assert push_to_base(gen(tp, "y"), comp, g).is_zero()
    e = gen(tp, "e")
    expect_e = from_witt(bn, square_class(Q, Fraction(2)) - square_class(Q, Fraction(4))) * gen(bn, "e")
    assert push_to_base(e, comp, g) == expect_e


def test_finite_field_flag():
    f7 = F.finite_prime(7)
    res = bott_residue(build_projective_problem(2, 1, f7))
    assert res.flags.get("finite_char")
    assert res.degree_zero == integer_class(1, f7)


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
        component_residue(comp, g)


def test_rational_division_by_an_integer_keeps_every_solution():
    # 2q = c has two solutions at each of the nine primes and two dyadic slots
    primes = (3, 7, 11, 19, 23, 31, 43, 47, 59)
    c = 2 * sum((square_class(Q, Fraction(p)) for p in primes), zero_class(Q))
    sols = _divide_rational_by_int(c, 2)
    assert len(set(sols)) == len(sols) == 1024
    assert len({q.key[1] for q in sols}) == 512
    assert all(2 * q == c for q in sols)


def _spy_on_divisions(monkeypatch):
    seen = []
    divide = engine.exact_divide

    def spy(num, den):
        seen.append(num.pres)
        return divide(num, den)

    monkeypatch.setattr(engine, "exact_divide", spy)
    return seen


@pytest.mark.parametrize("field", [Q, F.finite_prime(7)], ids=str)
def test_builder_problems_are_summed_over_z(monkeypatch, field):
    seen = _spy_on_divisions(monkeypatch)
    res = bott_residue(build_grassmannian_problem(2, 5, 2, field))
    assert seen and all(p == integral_bsl2n(2, field) for p in seen)
    assert res.degree_zero == integer_class(2, field)
    assert res.cleared.pres == res.value.pres == bsl2n(2, field)


@pytest.mark.parametrize(
    "field, degree", [(F.finite_prime(7), 3), (Q, -1)], ids=["Fp:7", "Q"]
)
def test_division_that_holds_only_in_witt_falls_back(field, degree):
    pres = bsl2n(2, field)
    normal = parse_rep("F@1*F@2", "SL2n", 2)
    restricted = parse_ring_expr("0 - e1^2 + e2^2", pres)
    if field.kind == F.FINITE_PRIME:
        # -1 lifts to 3 over F_7, and (3e1^2 + e2^2) / (e1^2 - e2^2) fails over Z
        zp = integral_bsl2n(2, field)
        z1, z2 = gen(zp, "e1"), gen(zp, "e2")
        assert exact_divide(3 * z1 * z1 + z2 * z2, z1 * z1 - z2 * z2) is None
    g = GroupDescriptor("SL2n", 2, field)
    res = bott_residue(LocalizationProblem(g, (FixedComponent("c", "rational", normal, restricted),)))
    assert res.degree_zero == square_class(field, Fraction(degree))
    assert res.degree_zero == integer_class(-1, field)
    assert res.cleared == from_int(pres, -1)
    assert res.value == LocalizedElement(pres, from_int(pres, -1), e_star(2, field), 0)


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
    assert res.value == LocalizedElement(pres, from_witt(pres, want), e_star(1, Q), 0)


def _sl2n1_problem(field, normal):
    rep = parse_rep(normal, "SL2n", 1)
    g = GroupDescriptor("SL2n", 1, field)
    return LocalizationProblem(g, (FixedComponent("c", "rational", rep, rep),))


def test_odd_integer_denominator_clears_over_a_quadratic_extension():
    """3e^4 / 3e^4 over Q(sqrt 2) is divided by the candidate q = <1>."""
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
