import importlib
import random
from fractions import Fraction

import pytest

from wittloc import fields as F
from wittloc.errors import BadParameters, ExprSyntaxError, UnsupportedField
from wittloc.exprs import (
    parse_field,
    parse_rep,
    parse_ring_expr,
    parse_scalar,
    parse_witt_expr,
    rep_str,
    ring_str,
    tokenize,
    witt_str,
)
from wittloc.euler import RepSum
from wittloc.quadext import make_context
from wittloc.rings import (
    GradedElement,
    bnn,
    bsl2n,
    from_witt,
    gen,
    generator_names,
    sum_elements,
    twisted_point,
)
from wittloc.witt import WittClass, integer_class, square_class, witt

Q = F.rationals()
F5 = F.finite_prime(5)


def test_parse_field_tags():
    assert parse_field("Q") == Q
    assert parse_field("R") == F.reals()
    assert parse_field("Fp:11") == F.finite_prime(11)
    assert parse_field("F5") == F.finite_prime(5)
    qe = parse_field("Q(sqrt:-1)")
    assert qe.kind == "QuadExt" and qe.a == -1


def test_field_tag_round_trip():
    for tag in ("Q", "R", "Fp:7", "Q(sqrt:2)", "Q(sqrt:-1)"):
        assert str(parse_field(tag)) == tag


def test_witt_expr_basics():
    assert parse_witt_expr("<1> + <-1>", Q).is_zero()
    assert parse_witt_expr("3*<2> - 2", Q) == 3 * square_class(Q, Fraction(2)) - integer_class(2, Q)
    # juxtaposed integer multiple
    assert parse_witt_expr("3<2>", Q) == parse_witt_expr("3*<2>", Q)


def test_unary_minus_binds_looser_than_power():
    pres = bsl2n(2, Q)
    e1, e2 = gen(pres, "e1"), gen(pres, "e2")
    assert parse_ring_expr("-e1^2", pres) == -(e1 * e1)
    assert parse_ring_expr("e2*-e1^2", pres) == -(e2 * e1 * e1)
    assert parse_ring_expr("--e1^2 - e2", pres) == e1 * e1 - e2
    assert parse_witt_expr("-<2>^2", Q) == -integer_class(1, Q)
    assert parse_witt_expr("-3<2>", Q) == -3 * square_class(Q, Fraction(2))


def test_witt_expr_fraction_scalars():
    assert parse_witt_expr("<1/2>", Q) == square_class(Q, Fraction(1, 2))
    assert parse_witt_expr("<-3/4>", Q) == square_class(Q, Fraction(-3))


def test_witt_round_trip():
    samples = [
        witt(Q, 1, 2, -3),
        witt(Q, 5, 5, 5),
        integer_class(0, Q),
        witt(F.finite_prime(7), 3, 3),
    ]
    for x in samples:
        assert parse_witt_expr(witt_str(x), x.field) == x


def test_syntax_errors_have_offsets():
    with pytest.raises(ExprSyntaxError) as e:
        parse_witt_expr("<2> + ", Q)
    assert e.value.pos == 6
    with pytest.raises(ExprSyntaxError):
        parse_witt_expr("<2", Q)
    with pytest.raises(ExprSyntaxError):
        parse_witt_expr("", Q)


@pytest.mark.parametrize("text, char, pos", [
    ("<2> + <3> ; 4", ";", 10), ("<2>;", ";", 3), ("  $<1>", "$", 2),
    ("<1> +\t\n  ~", "~", 9), ("<1> + <2>   #", "#", 12)])
def test_a_bad_character_is_reported_at_its_own_offset(text, char, pos):
    """The error names the bad character and its offset, not the whitespace
    in front of it."""
    with pytest.raises(ExprSyntaxError) as e:
        parse_witt_expr(text, Q)
    assert e.value.pos == pos and str(e.value) == f"unexpected character {char!r} (at offset {pos})"


def test_tokenize_skips_whitespace_and_keeps_offsets():
    assert tokenize("  rho(3) +\t2*e ") == [
        ("name", "rho", 2), ("sym", "(", 5), ("int", "3", 6), ("sym", ")", 7),
        ("sym", "+", 9), ("int", "2", 11), ("sym", "*", 12), ("name", "e", 13)]
    assert tokenize("") == [] and tokenize(" \t\n") == []


def test_ring_expr_and_round_trip():
    pres = bsl2n(2, Q)
    x = parse_ring_expr("<2>*e1^2*e2 - 3*e2 + (e1 + e2)^2", pres)
    assert parse_ring_expr(ring_str(x), pres) == x


def test_ring_expr_respects_relations():
    bn = bnn(1, Q)
    assert parse_ring_expr("(1 + x)*e", bn).is_zero()
    assert parse_ring_expr("x^2", bn) == parse_ring_expr("1", bn)


def test_ring_expr_twisted():
    ctx = make_context(Q, Fraction(2))
    tp = twisted_point(ctx)
    x = parse_ring_expr("y*e + <2>*e^2", tp)
    assert parse_ring_expr(ring_str(x), tp) == x


def test_unknown_generator_is_syntax_error():
    bn = bnn(1, Q)
    with pytest.raises(ExprSyntaxError):
        parse_ring_expr("x*e + e2", bn)


def test_rep_literals():
    r = parse_rep("Sym(3)@1 + F@2", "SL2n", 2)
    assert r.summands[0][0].exponents == (3, 0)
    assert r.summands[1][0].exponents == (0, 1)
    t = parse_rep("F@1*F@2", "SL2n", 2)
    assert t.summands[0][0].exponents == (1, 1)
    n = parse_rep("rho(3) + rho0 + rho0- + 2*rho(1)", "N")
    assert [s[1] for s in n.summands] == [2, 1, 1, 1]


@pytest.mark.parametrize("text, pos", [("F@1*F@1", 6), ("Sym(1)@1*Sym(2)@1", 16),
                                       ("F@2*Sym(3)@1*F@2", 15), ("Sym(0)@1*Sym(0)@1", 16)])
def test_a_factor_index_repeated_in_one_irrep_is_rejected(text, pos):
    """F (x) F = Sym^2 F + 1 has rank 4 and F (x) Sym^2 F = Sym^3 F + F rank 6;
    adding the exponents would read Sym(2)@1 (rank 3) and Sym(3)@1 (rank 4)."""
    with pytest.raises(ExprSyntaxError, match="repeated") as e:
        parse_rep(text, "SL2n", 2)
    assert e.value.pos == pos
    assert parse_rep("F@1 + F@1", "SL2n", 2) == parse_rep("2*F@1", "SL2n", 2)


def test_rep_round_trip():
    for text in ("Sym(5)@1 + 2*F@2", "F@1*F@2 + Sym(2)@2"):
        r = parse_rep(text, "SL2n", 2)
        assert parse_rep(rep_str(r), "SL2n", 2) == r
    for text in ("rho(1)", "rho0- + rho(4)"):
        r = parse_rep(text, "N")
        assert parse_rep(rep_str(r), "N") == r


def test_quadext_scalars():
    qe = parse_field("Q(sqrt:2)")
    assert parse_scalar("1+2*r", qe) == (Fraction(1), Fraction(2))
    assert parse_scalar("-r", qe) == (Fraction(0), Fraction(-1))
    assert parse_scalar("3", qe) == (Fraction(3), Fraction(0))


@pytest.mark.parametrize(
    "tag, text",
    [("Q(sqrt:2)", "1/0+r"), ("Q(sqrt:2)", "3/0*r"), ("Fp:7(sqrt:3)", "1/7+r"),
     ("Fp:7(sqrt:3)", "r-2/14")],
)
def test_quadext_scalar_with_a_zero_denominator_is_a_syntax_error(tag, text):
    field = parse_field(tag)
    with pytest.raises(ExprSyntaxError, match="bad scalar"):
        parse_scalar(text, field)
    with pytest.raises(ExprSyntaxError, match="bad scalar"):
        parse_witt_expr(f"<{text}>", field)


@pytest.mark.parametrize(
    "pres, text, printed",
    [
        (bnn(2, Q), "x2*e1 + e2^2*x1 + 3*x1*x2", "e1*x2 + x1*e2^2 + 3*<1>*x1*x2"),
        (bnn(3, F5), "x3*e2*x1 + <2>*e3 - x2*e2", "<2>*e3 + e2 + x1*e2*x3"),
        (twisted_point(make_context(F5, 2)), "e*y + 3*e^2 + x", "<2> + e^2 + y*e"),
        (twisted_point(make_context(F5, 2)), "x*e + <3>*y^2", "<2>*e"),
    ],
)
def test_ring_str_pins(pres, text, printed):
    x = parse_ring_expr(text, pres)
    assert ring_str(x) == printed
    assert parse_ring_expr(printed, pres) == x


@pytest.mark.parametrize(
    "pres",
    [bnn(2, Q), bnn(3, F5), twisted_point(make_context(F5, 2)),
     twisted_point(make_context(F.finite_prime(7), 3))],
    ids=str,
)
def test_ring_str_round_trip_seeded(pres):
    """Printing and parsing back gives the element, over BN^n with n >= 2
    and twisted points over F_p(sqrt a)."""
    rng = random.Random(41)
    names = generator_names(pres)
    scalars = [1, -1, 2, 3] if pres.field == Q else range(1, pres.field.p)
    for _ in range(200):
        x = from_witt(pres, witt(pres.field, *rng.sample(scalars, rng.randint(0, 2))))
        for _ in range(rng.randint(0, 4)):
            t = from_witt(pres, witt(pres.field, *rng.sample(scalars, rng.randint(1, 2))))
            for _ in range(rng.randint(0, 3)):
                t = t * gen(pres, rng.choice(names))
            x = x + t
        assert parse_ring_expr(ring_str(x), pres) == x


def test_parsed_sum_tests_each_monomial_once(monkeypatch):
    """The 1,330 terms of s^18 are summed once, with one zero test per
    monomial of the result; adding them one by one made 885,115."""
    exprs = importlib.import_module("wittloc.exprs")
    pres = bsl2n(4, Q)
    s18 = sum_elements(pres, [gen(pres, f"e{i}") for i in range(1, 5)]) ** 18
    text = ring_str(s18)
    summing, calls = [], []
    real_sum, real_is_zero = exprs.sum_elements, WittClass.is_zero

    def counted_sum(*args):
        summing.append(True)
        try:
            return real_sum(*args)
        finally:
            summing.pop()

    monkeypatch.setattr(exprs, "sum_elements", counted_sum)
    monkeypatch.setattr(WittClass, "is_zero",
                        lambda self: (calls.append(1) if summing else None) or real_is_zero(self))
    assert parse_ring_expr(text, pres) == s18
    assert 0 < len(calls) <= 1330


def test_a_power_makes_one_product_fewer_than_its_exponent(monkeypatch):
    """x^k is k - 1 products starting from x, not k starting from 1; x^0 is
    the integer 1."""
    pres = bsl2n(1, Q)
    want = gen(pres, "e1") ** 5
    calls = []
    real_mul = GradedElement.__mul__
    monkeypatch.setattr(GradedElement, "__mul__",
                        lambda self, other: calls.append(1) or real_mul(self, other))
    assert parse_ring_expr("e1^5", pres) == want
    assert len(calls) == 4
    calls.clear()
    assert parse_ring_expr("e1^0", pres) == from_witt(pres, integer_class(1, Q))
    assert parse_ring_expr("e1^1", pres) == gen(pres, "e1")
    assert calls == []
    assert parse_witt_expr("<2>^0", Q) == integer_class(1, Q)
    assert parse_scalar("3^0", Q) == 1


def test_parsing_forms_no_partial_sum():
    """Over Q(sqrt -7) the first four terms sum to 0 and all five to <3>*e.
    Summed term by term with the incomplete zero test, a partial sum raised
    Undecided."""
    field = parse_field("Q(sqrt:-7)")
    pres = bsl2n(1, field)
    text = "<1+r>*e + <1+r>*e - <2+2*r>*e - <-40-8*r>*e"
    assert parse_ring_expr(text, pres).is_zero()
    assert parse_ring_expr(text + " + <3>*e", pres) == parse_ring_expr("<3>*e", pres)


def _random_element(rng, field):
    if field.kind == "QuadExt":
        return (_random_element(rng, field.base), _random_element(rng, field.base))
    if field.kind == "Fp":
        return rng.randrange(field.p)
    return Fraction(rng.randint(-50, 50), rng.randint(1, 12))


@pytest.mark.parametrize("tag", ["Q", "R", "Fp:7", "Fp:13", "Fp:7(sqrt:3)", "Q(sqrt:2)",
                                 "Q(sqrt:-7)", "Q(sqrt:3/5)", "R(sqrt:-1)"])
def test_scalar_round_trip_seeded(tag):
    """parse_scalar reads back what scalar_repr prints, inside <...> too."""
    field = parse_field(tag)
    rng = random.Random(15)
    for _ in range(300):
        x = _random_element(rng, field)
        text = F.scalar_repr(field, x)
        assert parse_scalar(text, field) == x, text
        if not F.is_zero(field, x):
            assert parse_witt_expr(f"<{text}>", field) == square_class(field, x), text


def test_juxtaposition_binds_like_a_product():
    """An integer followed by an atom multiplies it, with the precedence of
    '*': the power applies to the atom alone."""
    pres = bsl2n(1, Q)
    e = gen(pres, "e")
    assert parse_ring_expr("2e^2", pres) == 2 * e * e
    assert ring_str(parse_ring_expr("2e^2", pres)) == "2*<1>*e^2"
    assert parse_ring_expr("-2e^2", pres) == -2 * e * e
    assert parse_witt_expr("3<2>^2", Q) == integer_class(3, Q)
    e1, e2 = gen(bsl2n(2, Q), "e1"), gen(bsl2n(2, Q), "e2")
    assert parse_ring_expr("e1^2e2", bsl2n(2, Q)) == e1 * e1 * e2
    qe = parse_field("Q(sqrt:2)")
    assert parse_scalar("1/2r", qe) == (Fraction(0), Fraction(1, 2))
    assert parse_scalar("1/2r", qe) == parse_scalar("(1/2)*r", qe)


@pytest.mark.parametrize(
    "tag, text, value",
    [("Fp:7", "1/2", 4), ("Fp:7", "-3/5", 5), ("Q", "+3/4", Fraction(3, 4)), ("Q(sqrt:2)", "(1+r)/2", (Fraction(1, 2), Fraction(1, 2))),
     ("Q(sqrt:2)", "r*2", (Fraction(0), Fraction(2))), ("Q(sqrt:2)", "r^2", (Fraction(2), Fraction(0))),
     ("Fp:7(sqrt:3)", "1/(1+r)", (3, 4))],
)
def test_scalars_are_read_in_the_field(tag, text, value):
    field = parse_field(tag)
    assert parse_scalar(text, field) == value
    assert parse_witt_expr(f"<{text}>", field) == square_class(field, value)


@pytest.mark.parametrize("text", ["7/7", "21/7*r", "1/(r^2-3)"])
def test_division_by_a_multiple_of_p_is_a_syntax_error(text):
    field = parse_field("Fp:7(sqrt:3)")
    with pytest.raises(ExprSyntaxError):
        parse_scalar(text, field)
    with pytest.raises(ExprSyntaxError):
        parse_witt_expr(f"<{text}>", field)


def test_error_inside_a_class_literal_has_its_offset_in_the_whole_text():
    qe = parse_field("Q(sqrt:2)")
    with pytest.raises(ExprSyntaxError) as e:
        parse_witt_expr("<1> + <2+x>", qe)
    assert e.value.pos == 9
    with pytest.raises(ExprSyntaxError) as e:
        parse_witt_expr("<3> - <1/0>", Q)
    assert e.value.pos == 8
    with pytest.raises(ExprSyntaxError) as e:
        parse_witt_expr("<1> + <r>", Q)
    assert e.value.pos == 7


@pytest.mark.parametrize("tag, pos", [("Q(sqrt:2+x)", 9), ("Fp:7(sqrt:1/7)", 11),
                                      ("Q(sqrt:2 + 3x)", 12), (" Q(sqrt:*2)", 8)])
def test_error_in_a_field_tag_has_its_offset_in_the_whole_tag(tag, pos):
    with pytest.raises(ExprSyntaxError) as e:
        parse_field(tag)
    assert e.value.pos == pos


def test_nested_field_tag_is_rejected_by_the_field():
    """The outer tag is the last '(sqrt:'; its base is a quadratic extension,
    which quad_ext refuses, and the a of the inner tag keeps its offset."""
    with pytest.raises(UnsupportedField, match="may not be nested"):
        parse_field("Q(sqrt:2)(sqrt:3)")
    with pytest.raises(ExprSyntaxError) as e:
        parse_field("Q(sqrt:2+x)(sqrt:3)")
    assert e.value.pos == 9


def test_equal_irrep_multisets_read_as_one_rep_sum():
    a, b = parse_rep("F@2 + F@1 + F@1", "SL2n", 2), parse_rep("2*F@1 + F@2", "SL2n", 2)
    assert a == b and hash(a) == hash(b)
    assert rep_str(a) == rep_str(b) == "2*F@1 + F@2"
    assert rep_str(parse_rep("rho(3) + rho0- + rho(1) + rho0", "N")) == "rho(1) + rho(3) + rho0 + rho0-"


@pytest.mark.parametrize("text", ["1.5", "1e3", "r", "<2>", "2 3"])
def test_scalar_forms_outside_the_grammar_are_rejected(text):
    with pytest.raises(ExprSyntaxError):
        parse_scalar(text, Q)


@pytest.mark.parametrize("n", [0, -1])
def test_sl2n_representations_need_n_at_least_one(n):
    """n < 1 is rejected as a parameter before the literal is read."""
    with pytest.raises(BadParameters, match=r"^n must be >= 1$"):
        parse_rep("F@1", "SL2n", n)
    with pytest.raises(BadParameters, match=r"^n must be >= 1$"):
        parse_rep("no literal", "SL2n", n)
    with pytest.raises(BadParameters, match=r"^n must be >= 1$"):
        RepSum(("SL2n", n), ())


# -- the Witt reader against the same tree evaluated by WittClass operations ---


def _witt_tree(rng, field, depth):
    """A random Witt expression tree: literals, integers (0, -k and
    2027025 among them), sums, differences, negations, products and powers
    (^0 included)."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.7:
            c = _random_element(rng, field)
            while F.is_zero(field, c):
                c = _random_element(rng, field)
            return ("lit", c)
        return ("int", rng.choice((0, 1, 2, 3, -1, -2, -5, 2027025)))
    op = rng.choices(("add", "sub", "mul", "neg", "pow"), (30, 15, 30, 10, 15))[0]
    if op == "neg":
        return (op, _witt_tree(rng, field, depth - 1))
    if op == "pow":
        return (op, _witt_tree(rng, field, depth - 1), rng.choice((0, 1, 2, 3)))
    return (op, _witt_tree(rng, field, depth - 1), _witt_tree(rng, field, depth - 1))


def _render(field, t, rng):
    op = t[0]
    if op == "lit":
        return f"<{F.scalar_repr(field, t[1])}>"
    if op == "int":
        return str(t[1])
    if op == "neg":
        return f"-({_render(field, t[1], rng)})"
    if op == "pow":
        return f"({_render(field, t[1], rng)})^{t[2]}"
    a, b = _render(field, t[1], rng), _render(field, t[2], rng)
    if op == "mul" and t[1][0] == "int" and t[1][1] >= 0 and t[2][0] == "lit" \
            and rng.random() < 0.5:
        return f"{a}{b}"  # juxtaposition: 3<2>
    return f"({a} {dict(add='+', sub='-', mul='*')[op]} {b})"


def _evaluate(field, t):
    op = t[0]
    if op == "lit":
        return square_class(field, t[1])
    if op == "int":
        return integer_class(t[1], field)
    if op == "neg":
        return -_evaluate(field, t[1])
    if op == "pow":
        x, out = _evaluate(field, t[1]), integer_class(1, field)
        for _ in range(t[2]):
            out = out * x
        return out
    a, b = _evaluate(field, t[1]), _evaluate(field, t[2])
    return a + b if op == "add" else a - b if op == "sub" else a * b


@pytest.mark.parametrize("tag", ["Q", "R", "Fp:7", "Fp:7(sqrt:3)", "Q(sqrt:2)", "Q(sqrt:-7)"])
def test_parsed_witt_trees_match_their_evaluation(tag):
    """parse_witt_expr of a rendered random tree equals the tree evaluated
    by WittClass operations, whatever mix of integers, literals, sums and
    keyed products meets in a product, such as (<2> + <3>) * <5>; and
    printing then parsing is a fixed point of the printed string."""
    field = parse_field(tag)
    rng = random.Random(f"witt trees {tag}")
    for _ in range(150):
        tree = _witt_tree(rng, field, 4)
        text = _render(field, tree, rng)
        x = parse_witt_expr(text, field)
        assert x == _evaluate(field, tree), text
        printed = witt_str(x)
        assert witt_str(parse_witt_expr(printed, field)) == printed, text
    assert witt_str(parse_witt_expr("(<2> + <3>) * <5>", field)) == witt_str(
        (witt(field, 2) + witt(field, 3)) * witt(field, 5))
