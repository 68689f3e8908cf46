import json
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
    _integer_e_poly_to_base,
)
from wittloc.errors import (
    BadDimension,
    BadParameters,
    NonInvertibleNormalEuler,
    UnsupportedResidueField,
)
from wittloc.euler import NIrrep, RHO, RHO0, n_rep
from wittloc.quadext import make_context
from wittloc.rings import GradedElement, bsl2n, from_int, from_witt, gen, one_elem, twisted_point
from wittloc.witt import integer_class, square_class, witt

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
