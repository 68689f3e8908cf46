import copy
import importlib
import pickle
from fractions import Fraction

import pytest

from wittloc import fields as F
from wittloc.errors import (BadParameters, InconsistentField, PresentationMismatch,
                            UnknownGenerator, UnsupportedField)
from wittloc.quadext import QuadExtContext, make_context
from wittloc.rings import (
    BNN,
    BSL2N,
    TWISTED,
    PresentationId,
    bnn,
    bsl2n,
    e_monomial,
    from_int,
    from_witt,
    gen,
    generator_names,
    integral_bsl2n,
    key_generators,
    localize_element,
    one_elem,
    twisted_point,
    witt_image,
    zero_elem,
)
from wittloc.witt import integer_class, witt

Q = F.rationals()


def test_polynomial_ring_basics():
    pres = bsl2n(2, Q)
    e1, e2 = gen(pres, "e1"), gen(pres, "e2")
    assert e1 * e2 == e2 * e1
    assert (e1 + e2) ** 2 == e1 ** 2 + 2 * e1 * e2 + e2 ** 2
    assert (e1 - e1).is_zero()
    assert e1.degree() == 2  # generators sit in degree 2


def test_unknown_generator():
    pres = bnn(1, Q)
    with pytest.raises(UnknownGenerator):
        gen(pres, "e2")


_ALL_PRESENTATIONS = [
    bsl2n(1, Q),
    bsl2n(3, Q),
    integral_bsl2n(2, Q),
    bnn(1, Q),
    bnn(2, F.finite_prime(5)),
    twisted_point(make_context(Q, Fraction(2))),
]


@pytest.mark.parametrize("pres", _ALL_PRESENTATIONS, ids=str)
def test_generator_names_go_through_gen(pres):
    for name in generator_names(pres):
        assert not gen(pres, name).is_zero()


def test_generator_names_lists():
    assert generator_names(bsl2n(1, Q)) == ["e1", "e"]
    assert generator_names(bsl2n(3, Q)) == ["e1", "e2", "e3"]
    assert generator_names(bnn(1, Q)) == ["x1", "e1", "x", "e"]
    assert generator_names(bnn(2, Q)) == ["x1", "x2", "e1", "e2"]
    assert generator_names(twisted_point(make_context(Q, Fraction(2)))) == ["e", "y", "x"]


def test_keys_are_flat_exponent_tuples():
    one = integer_class(1, Q)
    assert gen(bnn(2, Q), "e2").coeffs == {(0, 0, 0, 1): one}
    assert gen(bnn(2, Q), "x1").coeffs == {(1, 0, 0, 0): one}
    assert gen(twisted_point(make_context(Q, Fraction(2))), "y").coeffs == {(1, 0): one}
    assert gen(bsl2n(1, Q), "e1").coeffs == {(1,): one}


@pytest.mark.parametrize("pres", _ALL_PRESENTATIONS, ids=str)
def test_e_monomial_is_the_product_of_powers_of_gen(pres):
    es = [s for s in key_generators(pres.kind, pres.n) if s[0] == "e"]
    powers = {s: i + 1 for i, s in enumerate(es)}
    product = one_elem(pres)
    for s, k in powers.items():
        product = product * gen(pres, s) ** k
    assert e_monomial(pres, 3, **powers) == from_int(pres, 3) * product
    if not pres.integral:
        assert e_monomial(pres, witt(pres.field, 2), **powers) == product * witt(pres.field, 2)
    assert e_monomial(pres, 5) == from_int(pres, 5)


def test_e_monomial_takes_only_e_generators():
    ctx = make_context(Q, Fraction(2))
    for pres, name in ((bnn(1, Q), "x"), (twisted_point(ctx), "y"), (bsl2n(2, Q), "e3"),
                       (bsl2n(1, Q), "e1")):
        with pytest.raises(UnknownGenerator):
            e_monomial(pres, 1, **{name: 1})
    with pytest.raises(UnknownGenerator):
        e_monomial(bnn(1, Q), 1, e=-1)


def test_bn_relations():
    pres = bnn(1, Q)
    x, e = gen(pres, "x"), gen(pres, "e")
    one = one_elem(pres)
    assert x * x == one
    assert ((one + x) * e).is_zero()
    assert x * e == -e
    assert x * e ** 3 == -(e ** 3)


def test_bn_two_factors_independent():
    pres = bnn(2, Q)
    x1, e2 = gen(pres, "x1"), gen(pres, "e2")
    assert x1 * e2 == e2 * x1
    assert not (x1 * e2).is_zero()
    assert x1 * gen(pres, "e1") == -gen(pres, "e1")


def test_twisted_point_relations():
    ctx = make_context(Q, Fraction(3))
    pres = twisted_point(ctx)
    y, e, x = gen(pres, "y"), gen(pres, "e"), gen(pres, "x")
    # y^2 = <1,1,-a,-a> = 2(<1> - <a>)
    ysq = witt(Q, 1, 1, -3, -3)
    assert y * y == from_witt(pres, ysq)
    assert x * e == -e
    # y^2 * e = 4e since <a>e = -e
    assert y * y * e == 4 * e


def test_twisted_coefficients_mod_Ia():
    ctx = make_context(Q, Fraction(3))
    pres = twisted_point(ctx)
    e, y = gen(pres, "e"), gen(pres, "y")
    # the trace form <2> + <2a> generates I_a and must kill e and y
    killer = from_witt(pres, witt(Q, 2, 6))
    assert (killer * e).is_zero()
    assert (killer * y).is_zero()
    # ... but I_a does not kill the unit component
    assert not killer.is_zero()


def test_localize_bn_sends_x_to_minus_one():
    pres, carrier = bnn(1, Q), bsl2n(1, Q)
    x, e = gen(pres, "x"), gen(pres, "e")
    assert localize_element(x, carrier) == -one_elem(carrier)
    assert localize_element(x * e + 3 * e, carrier) == 2 * gen(carrier, "e")
    two = bnn(2, Q)
    assert (localize_element(gen(two, "x1") * gen(two, "e2") ** 2, bsl2n(2, Q))
            == -gen(bsl2n(2, Q), "e2") ** 2)
    # a twisted-point class is pushed to BN before it is localized
    tp = twisted_point(make_context(Q, Fraction(2)))
    with pytest.raises(PresentationMismatch):
        localize_element(gen(tp, "e"), carrier)


@pytest.mark.parametrize("x, carrier", [
    (gen(bsl2n(2, F.finite_prime(7)), "e2"), bsl2n(1, Q)),
    (gen(bsl2n(1, Q), "e"), bsl2n(1, Q)),
    (gen(bnn(2, Q), "e2"), bsl2n(1, Q)),
    (gen(bnn(1, Q), "e"), bsl2n(2, Q)),
    (gen(bnn(1, F.finite_prime(7)), "e"), bsl2n(1, Q)),
    (gen(bnn(1, Q), "e"), integral_bsl2n(1, Q)),
    (gen(bnn(1, Q), "e"), bnn(1, Q)),
], ids=["BSL2n(2)/F7", "BSL2n(1)/Q", "BN^2 into BSL2n(1)", "BN^1 into BSL2n(2)",
        "BN/F7 into BSL2n/Q", "into Z/N", "into BN"])
def test_localize_takes_bn_n_over_k_into_bsl2n_n_over_w_k_only(x, carrier):
    """Only BN^n over k localizes, and only into BSL2n(n) over W(k).  A
    BSL2n element came back unchanged, over its own field, and BN^2's e2
    in BSL2n(1) came out as <1>."""
    with pytest.raises(PresentationMismatch):
        localize_element(x, carrier)


def test_mixed_presentation_product_rejected():
    a = gen(bsl2n(1, Q), "e")
    b = gen(bnn(1, Q), "e")
    with pytest.raises(PresentationMismatch):
        a * b


def test_integral_coefficients_are_residues_mod_n():
    f7 = F.finite_prime(7)
    zp = integral_bsl2n(1, f7)
    e = gen(zp, "e")
    assert (5 * e).coeffs == {(1,): 1} and (-e).coeffs == {(1,): 3}
    assert (4 * e).is_zero() and (2 * e) * (2 * e) == zero_elem(zp)
    assert witt_image(-e) == from_witt(bsl2n(1, f7), integer_class(-1, f7)) * gen(bsl2n(1, f7), "e")
    # over Q, N = 0: no reduction
    assert (5 * gen(integral_bsl2n(1, Q), "e")).coeffs == {(1,): 5}


def test_witt_image_tests_no_image_for_zero(monkeypatch):
    """Z/N -> W(k) is injective, so over Q(sqrt a) no image coefficient goes
    through the W(Q(sqrt a)) zero decision."""
    from wittloc.engine import bott_residue, build_hypersurface_lines_problem

    places = importlib.import_module("wittloc.places")
    field = F.quad_ext(Q, 2)
    zp = integral_bsl2n(2, field)
    x = 10395 * gen(zp, "e1") ** 4 - 10395 * gen(zp, "e2") ** 4
    calls = []
    real = places.qext_witt_zero
    monkeypatch.setattr(
        places, "qext_witt_zero", lambda *args: calls.append(args) or real(*args)
    )
    image = witt_image(x)
    assert calls == []
    assert image.coeffs == {(4, 0): integer_class(10395, field), (0, 4): integer_class(-10395, field)}
    for N, count in ((3, 3), (5, 105)):
        res = bott_residue(build_hypersurface_lines_problem(N, field))
        assert res.degree_zero == integer_class(count, field)


def _context_apart():
    """Q(sqrt 3) over Q, built with the constructors, not quad_ext and
    make_context."""
    return QuadExtContext(F.FieldDescriptor(F.QUAD_EXT, base=F.rationals(), a=3))


@pytest.mark.parametrize("make, made", [
    (lambda: PresentationId(BSL2N, 2, F.rationals()), lambda: bsl2n(2, Q)),
    (lambda: PresentationId(BSL2N, 3, F.finite_prime(7), integral=True),
     lambda: integral_bsl2n(3, F.finite_prime(7))),
    (lambda: PresentationId(BNN, 2, F.rationals()), lambda: bnn(2, Q)),
    (lambda: PresentationId(TWISTED, 1, F.rationals(), ctx=_context_apart()),
     lambda: twisted_point(make_context(Q, 3))),
    (_context_apart, lambda: make_context(Q, 3)),
], ids=["bsl2n", "integral", "bnn", "twisted", "context"])
def test_equal_presentations_and_contexts_compare_equal_and_hash_equal(make, made):
    """A presentation or a context is one object per value.  Equal ones
    built apart, and copies and pickles, which are made anew through the
    constructor, are that object, so they compare equal, hash equal and
    find each other in a dict; a presentation keeps its modulus."""
    x = make()
    for other in (made(), make(), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert other is x
        assert other == x and hash(other) == hash(x)
        assert {x: "found"}[other] == "found"
        assert repr(other) == repr(x)
        assert getattr(other, "modulus", None) == getattr(x, "modulus", None)


@pytest.mark.parametrize("build", [bsl2n, integral_bsl2n, bnn], ids=lambda f: f.__name__)
@pytest.mark.parametrize("n", [True, 1.0, 2.0, 1.5, "2", None], ids=repr)
def test_presentation_builders_reject_a_non_integer_n(build, n):
    """bsl2n(2.0, Q) printed BSL2n(2.0)/Q, and its gen raised an untyped
    TypeError; bsl2n(True, Q) printed BSL2n(True)/Q and bnn(1.5, Q) BN^1.5/Q.
    True == 1 and 2.0 == 2, so a cached n = 1 or 2 must not answer them."""
    build(1, Q), build(2, Q)
    with pytest.raises(BadParameters, match=r"^n must be an integer"):
        build(n, Q)


def _malformed_presentations():
    ctx = make_context(F.finite_prime(5), 2)
    q3 = make_context(Q, 3)
    return {
        "twisted over Q, context over F_5": (InconsistentField, lambda: PresentationId(TWISTED, 1, Q, ctx=ctx)),
        "BSL2n with a context": (BadParameters, lambda: PresentationId(BSL2N, 2, Q, ctx=q3)),
        "BN with a context": (BadParameters, lambda: PresentationId(BNN, 1, Q, ctx=q3)),
        "BSL2n with a string for a context": (BadParameters, lambda: PresentationId(BSL2N, 1, Q, ctx="Q(sqrt:3)")),
        "twisted with 3 factors": (BadParameters, lambda: PresentationId(TWISTED, 3, F.finite_prime(5), ctx=ctx)),
        "twisted with no context": (BadParameters, lambda: PresentationId(TWISTED, 1, Q)),
        "twisted with a field for a context": (BadParameters, lambda: PresentationId(TWISTED, 1, Q, ctx=q3.ext)),
        "integral BN": (BadParameters, lambda: PresentationId(BNN, 1, Q, integral=True)),
        "integral = 1": (BadParameters, lambda: PresentationId(BSL2N, 1, Q, integral=1)),
        "unknown kind": (BadParameters, lambda: PresentationId("foo", 1, Q)),
        "no field": (BadParameters, lambda: PresentationId(BSL2N, 1, "Q")),
        "n = True": (BadParameters, lambda: PresentationId(BSL2N, True, Q)),
        "n = 0": (BadParameters, lambda: PresentationId(BNN, 0, Q)),
    }


@pytest.mark.parametrize("name", _malformed_presentations())
def test_a_presentation_that_names_no_ring_is_rejected_each_time(name):
    """PresentationId checks each value before it stores it: a twisted point
    has one factor and a context over its own field, only it has a context,
    and only BSL2n is integral.  Each value here was accepted, as a second
    object, before; a rejected one raises again and is not stored."""
    error, make = _malformed_presentations()[name]
    made = len(PresentationId._table)
    for _ in range(2):
        with pytest.raises(error):
            make()
    assert len(PresentationId._table) == made


@pytest.mark.parametrize("ext", [Q, F.finite_prime(7), F.reals(), "Q(sqrt:3)", None], ids=str)
def test_a_context_is_made_from_a_quadratic_extension_only(ext):
    """A context is its extension field: base and a are read from it, and
    anything but a quadratic extension raises UnsupportedField, each time."""
    for _ in range(2):
        with pytest.raises(UnsupportedField):
            QuadExtContext(ext)
    ctx = QuadExtContext(F.quad_ext(Q, 5))
    assert (ctx.base, ctx.a, ctx.ext) == (Q, Fraction(5), F.quad_ext(Q, 5))
    assert ctx is make_context(Q, 5)
    assert str(twisted_point(ctx)) == "TwistedPoint(Q(sqrt:5))"
