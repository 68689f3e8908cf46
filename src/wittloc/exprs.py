"""Parsing and printing for field tags, scalars, Witt-class expressions,
graded-ring expressions, and representation literals.

expr   := term (('+' | '-') term)*
term   := factor (('*' | '/') factor | factor)*
factor := ('-' | '+') factor | atom ('^' int)*
atom   := '<' scalar '>' | int | name | '(' expr ')'
scalar := expr, evaluated in the field; its one name is r (the square
          root, on k(sqrt a) only), it has no '<', and only it has '/'

One grammar, three atom rules (``_Atoms``): a scalar is evaluated in the
field's own arithmetic (``_Scalar``), a Witt class reads '<' scalar '>' as
<c>, and a ring element also reads the generators as names.  The Witt
reader keeps an integer t as the int, t<1>, and literals as counted
entries (``_Counted``), so sums, negations and integer multiples of them
merge counts, and a parsed sum is keyed once; only a product of two
values that are not integers keys its factors and multiplies the keys,
so nothing is factored that the input did not contain.  A bare factor
in a term must follow an integer token (a coefficient or an exponent) and
is a '*' with its binding: 3<2> = 3*<2>, 2e^2 = 2*(e^2), e1^2e2 =
e1^2*e2, 1/2r = (1/2)*r.  Unary minus binds looser than '^': -e1^2 is
-(e1^2).
"""

from __future__ import annotations

import re
from functools import partial
from typing import Callable, List, NamedTuple, Optional, Tuple

from . import fields as F
from .errors import BadParameters, ExprSyntaxError, UnknownGenerator, ZeroInput
from .fields import QUAD_EXT, FieldDescriptor, finite_prime, quad_ext, rationals, reals
from .witt import WittClass, _canonicalize, integer_class, square_class
from .rings import (GradedElement, PresentationId, from_witt, gen,
                    key_generators, sum_elements)

# one group per token kind; the last catches any other non-space character
_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z][A-Za-z0-9]*)|([<>()@^*+,/-])|(\S)")
_TOKEN_KINDS = (None, "int", "name", "sym", None)


def tokenize(text: str) -> List[Tuple[str, str, int]]:
    """(kind, value, position) triples; kinds are 'int', 'name', 'sym'.
    Whitespace separates tokens; any other character raises
    ExprSyntaxError at its own offset."""
    out = [(_TOKEN_KINDS[m.lastindex], m.group(), m.start()) for m in _TOKEN_RE.finditer(text)]
    for kind, value, pos in out:
        if kind is None:
            raise ExprSyntaxError(f"unexpected character {value!r}", pos)
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text)
        self.i = 0

    def peek(self) -> Optional[Tuple[str, str, int]]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> Tuple[str, str, int]:
        t = self.peek()
        if t is None:
            raise ExprSyntaxError("unexpected end of expression", len(self.text))
        self.i += 1
        return t

    def expect(self, value: str):
        t = self.next()
        if t[1] != value:
            raise ExprSyntaxError(f"expected {value!r}, found {t[1]!r}", t[2])

    def at(self, value: str) -> bool:
        return self.i < len(self.toks) and self.toks[self.i][1] == value

    def done(self):
        t = self.peek()
        if t is not None:
            raise ExprSyntaxError(f"trailing input {t[1]!r}", t[2])


# ---------------------------------------------------------------------------
# field tags and scalars


def parse_field(tag: str) -> FieldDescriptor:
    # the last '(sqrt:' opens the tag: a nested tag's base is an extension
    m = re.fullmatch(r"\s*(.+)\(sqrt:(.+)\)\s*", tag)
    if m:
        base = parse_field(m.group(1))
        # a is read in place, so an error in it reports its offset in the tag
        a = parse_scalar(" " * m.start(2) + m.group(2), base)
        return quad_ext(base, a)
    tag = tag.strip()
    if tag == "Q":
        return rationals()
    if tag == "R":
        return reals()
    m = re.fullmatch(r"F(?:p:)?(\d+)", tag)
    if m:
        return finite_prime(int(m.group(1)))
    raise ExprSyntaxError(f"unknown field tag {tag!r}")


def parse_scalar(text: str, field: FieldDescriptor):
    """A field element, read by the expression grammar in the field's own
    arithmetic: integers, 'r' (the square root) on k(sqrt a), and
    + - * / ^ with parentheses.  A division by 0 in k (1/0 over Q, 1/7
    over F_7(sqrt 3)) is an ExprSyntaxError."""
    return _parse(text, _scalar_atoms(field)).x


class _Scalar:
    """A field element with the operators the grammar applies."""

    __slots__ = ("field", "x")

    def __init__(self, field: FieldDescriptor, x):
        self.field, self.x = field, x

    def __add__(self, other: "_Scalar") -> "_Scalar":
        return _Scalar(self.field, F.add(self.field, self.x, other.x))

    def __neg__(self) -> "_Scalar":
        return _Scalar(self.field, F.neg(self.field, self.x))

    def __mul__(self, other: "_Scalar") -> "_Scalar":
        return _Scalar(self.field, F.mul(self.field, self.x, other.x))

    def __truediv__(self, other: "_Scalar") -> "_Scalar":
        return _Scalar(self.field, F.div(self.field, self.x, other.x))


# ---------------------------------------------------------------------------
# scalars, Witt-class and graded-ring expressions: one grammar, three atom rules


class _Atoms(NamedTuple):
    """What the atoms of an expression stand for."""

    field: FieldDescriptor
    integer: Callable  # int -> value
    name: Optional[Callable]  # name -> value; None: names are not atoms
    literal: Optional[Callable]  # element c -> value of <c>; None in a scalar
    scalars: Optional["_Atoms"]  # the atoms of c in <c>; None in a scalar, which divides instead
    total: Callable  # list of values -> their sum


def _sum(values: list):
    return sum(values[1:], values[0])


def _scalar_atoms(field: FieldDescriptor) -> _Atoms:
    name = None
    if field.kind == QUAD_EXT:
        root = _Scalar(field, (F.zero(field.base), F.one(field.base)))

        def name(s: str) -> _Scalar:
            if s != "r":
                raise UnknownGenerator(s)
            return root

    return _Atoms(field, lambda k: _Scalar(field, F.coerce(field, k)), name, None, None, _sum)


class _Counted:
    """A Witt-expression value: n<1> + the sum of k*<c> over the ``terms``,
    (c, k) pairs with k >= 1, + ``cls``, a ``WittClass`` or None.  The
    integer and the literals stay unkeyed until ``witt_class`` keys them
    together, once; ``cls`` holds what a product has keyed."""

    __slots__ = ("field", "n", "terms", "cls")

    def __init__(self, field: FieldDescriptor, n: int = 0, terms: Tuple = (),
                 cls: Optional[WittClass] = None):
        self.field, self.n, self.terms, self.cls = field, n, terms, cls

    @staticmethod
    def literal(field: FieldDescriptor, c) -> "_Counted":
        if F.is_zero(field, c):
            raise ZeroInput("diagonal entries must be nonzero")
        return _Counted(field, 0, ((c, 1),))

    @staticmethod
    def total(values: list) -> "_Counted":
        classes = [v.cls for v in values if v.cls is not None]
        return _Counted(values[0].field, sum(v.n for v in values),
                        tuple(ck for v in values for ck in v.terms),
                        _sum(classes) if classes else None)

    def __neg__(self) -> "_Counted":
        field = self.field
        return _Counted(field, -self.n, tuple((F.neg(field, c), k) for c, k in self.terms),
                        None if self.cls is None else -self.cls)

    def __mul__(self, other: "_Counted") -> "_Counted":
        """An integer factor scales the counts; else the keys multiply."""
        for t, x in ((self, other), (other, self)):
            if not t.terms and t.cls is None:  # the integer t.n
                m = t.n
                if m < 0:
                    m, x = -m, -x
                if not m:
                    return _Counted(x.field)
                return _Counted(x.field, m * x.n, tuple((c, m * k) for c, k in x.terms),
                                None if x.cls is None else m * x.cls)
        return _Counted(self.field, cls=self.witt_class() * other.witt_class())

    def witt_class(self) -> WittClass:
        """The class, the integer and the literals keyed in one
        canonicalization; it replaces them, so a value is keyed once."""
        field, n = self.field, self.n
        if n or self.terms or self.cls is None:
            pairs = list(self.terms)
            if n:
                one = F.one(field)
                pairs.append((one if n > 0 else F.neg(field, one), abs(n)))
            x = WittClass(field, _canonicalize(field, pairs))
            self.n, self.terms, self.cls = 0, (), x if self.cls is None else self.cls + x
        return self.cls


def parse_witt_expr(text: str, field: FieldDescriptor) -> WittClass:
    return _parse(text, _Atoms(field, partial(_Counted, field), None,
                               partial(_Counted.literal, field), _scalar_atoms(field),
                               _Counted.total)).witt_class()


def parse_ring_expr(text: str, pres: PresentationId) -> GradedElement:
    field, lift = pres.field, partial(from_witt, pres)
    return _parse(text, _Atoms(field, lambda k: lift(integer_class(k, field)),
                               partial(gen, pres), lambda c: lift(square_class(field, c)),
                               _scalar_atoms(field), partial(sum_elements, pres)))


def _parse(text: str, atoms: _Atoms):
    p = _Parser(text)
    out = _expr(p, atoms)
    p.done()
    return out


def _expr(p: _Parser, atoms: _Atoms):
    """The signed terms, summed once: no partial sum is formed."""
    terms = [_term(p, atoms)]
    while p.at("+") or p.at("-"):
        op = p.next()[1]
        t = _term(p, atoms)
        terms.append(t if op == "+" else -t)
    return terms[0] if len(terms) == 1 else atoms.total(terms)


def _term(p: _Parser, atoms: _Atoms):
    acc = _factor(p, atoms)
    while True:
        t = p.peek()
        if t is None:
            return acc
        if t[1] == "*":
            p.next()
            acc = acc * _factor(p, atoms)
        elif t[1] == "/" and atoms.scalars is None:
            p.next()
            den = _factor(p, atoms)
            try:
                acc = acc / den
            except ZeroDivisionError:
                raise ExprSyntaxError(f"bad scalar: division by 0 in {atoms.field}", t[2])
        elif p.toks[p.i - 1][0] == "int" and (
                t[1] in ("<", "(") or (t[0] == "name" and atoms.name is not None)):
            # juxtaposition after an integer is a '*': 3<2>, 2e1, e1^2e2, 1/2r
            acc = acc * _factor(p, atoms)
        else:
            return acc


def _factor(p: _Parser, atoms: _Atoms):
    t = p.next()
    if t[1] in ("-", "+"):
        x = _factor(p, atoms)
        return -x if t[1] == "-" else x
    base = _atom(t, p, atoms)
    while p.at("^"):
        p.next()
        t = p.next()
        if t[0] != "int":
            raise ExprSyntaxError("exponent must be a nonnegative integer", t[2])
        # x^k is k - 1 products from x; x^0 is the integer 1
        k = int(t[1])
        acc = base if k else atoms.integer(1)
        for _ in range(k - 1):
            acc = acc * base
        base = acc
    return base


def _atom(t: Tuple[str, str, int], p: _Parser, atoms: _Atoms):
    """The atom that starts with the token t, just read."""
    if t[1] == "<" and atoms.scalars is not None:
        c = _expr(p, atoms.scalars).x
        p.expect(">")
        return atoms.literal(c)
    if t[1] == "(":
        inner = _expr(p, atoms)
        p.expect(")")
        return inner
    if t[0] == "int":
        return atoms.integer(int(t[1]))
    if t[0] == "name" and atoms.name is not None:
        try:
            return atoms.name(t[1])
        except UnknownGenerator:
            raise ExprSyntaxError(f"unknown generator {t[1]!r}", t[2])
    raise ExprSyntaxError(f"unexpected token {t[1]!r}", t[2])


# ---------------------------------------------------------------------------
# representation literals

# the names an irrep literal starts with; no ring generator has one
_IRREP_NAMES = frozenset(("Sym", "F", "rho", "rho0"))


def is_rep_literal(text: str) -> bool:
    """Whether the first name in text is an irrep name, so that text is a
    representation literal (``parse_rep``) and not a ring expression."""
    first = next((v for kind, v, _ in tokenize(text) if kind == "name"), None)
    return first in _IRREP_NAMES


def parse_rep(text: str, group_kind: str, n: int = 1):
    """Sums of irrep literals: Sym(m)@i, F@i (and '*'-products of those),
    rho(m), rho0, rho0-; an integer prefix 'k*' repeats a summand.  Equal
    irreps merge: 'F@2 + F@1 + F@1' is '2*F@1 + F@2'.  A product names
    each factor index at most once.  A group kind other than SL2n or N, an
    SL2^n n that is not an int >= 1, or an N n other than 1 raises
    BadParameters before the literal is read."""
    from .euler import NIrrep, RHO, RHO0, RHO0_MINUS, RepSum, SL2nIrrep, rep_group

    group = rep_group(group_kind, n)
    p = _Parser(text)
    summands = []
    while True:
        mult = 1
        t = p.peek()
        if t is None:
            raise ExprSyntaxError("empty representation literal", len(p.text))
        if t[0] == "int":
            p.next()
            mult = int(t[1])
            p.expect("*")
        if group_kind == "SL2n":
            exps, seen = [0] * n, set()
            while True:
                tag = p.next()
                if tag[1] == "Sym":
                    p.expect("(")
                    mtok = p.next()
                    if mtok[0] != "int":
                        raise ExprSyntaxError("Sym needs an integer exponent", mtok[2])
                    m = int(mtok[1])
                    p.expect(")")
                elif tag[1] == "F":
                    m = 1
                else:
                    raise ExprSyntaxError(f"unknown irrep {tag[1]!r}", tag[2])
                p.expect("@")
                itok = p.next()
                if itok[0] != "int" or not 1 <= int(itok[1]) <= n:
                    raise ExprSyntaxError(f"factor index out of range 1..{n}", itok[2])
                i = int(itok[1]) - 1
                # F@1*F@1 is Sym^2 F + 1, not Sym(2)@1: one index per factor
                if i in seen:
                    raise ExprSyntaxError(f"factor index {i + 1} repeated in one irrep", itok[2])
                seen.add(i)
                exps[i] = m
                if p.at("*"):
                    p.next()
                else:
                    break
            summands.append((SL2nIrrep(tuple(exps)), mult))
        else:
            tag = p.next()
            if tag[1] == "rho":
                p.expect("(")
                mtok = p.next()
                if mtok[0] != "int":
                    raise ExprSyntaxError("rho needs an integer weight", mtok[2])
                p.expect(")")
                summands.append((NIrrep(RHO, int(mtok[1])), mult))
            elif tag[1] == "rho0":
                if p.at("-"):
                    # a '-' directly after rho0 marks the sign-twisted character
                    p.next()
                    summands.append((NIrrep(RHO0_MINUS), mult))
                else:
                    summands.append((NIrrep(RHO0), mult))
            else:
                raise ExprSyntaxError(f"unknown irrep {tag[1]!r}", tag[2])
        if p.at("+"):
            p.next()
            continue
        break
    p.done()
    return RepSum(group, tuple(summands))


# ---------------------------------------------------------------------------
# printers


def witt_str(x: WittClass) -> str:
    return str(x)


def _mono_str(pres: PresentationId, key) -> str:
    names = key_generators(pres.kind, pres.n)
    return "*".join(s if m == 1 else f"{s}^{m}" for s, m in zip(names, key) if m)


def ring_str(x: GradedElement) -> str:
    if x.is_zero():
        return "0"
    terms = []
    for key in sorted(x.coeffs):
        c = x.coeffs[key]
        mono = _mono_str(x.pres, key)
        # an integral presentation holds int coefficients, printed as ints
        cs = str(c)
        if not mono:
            terms.append(f"({cs})" if " + " in cs else cs)
        elif cs in ("<1>", "1"):
            terms.append(mono)
        elif " + " in cs:
            terms.append(f"({cs})*{mono}")
        else:
            terms.append(f"{cs}*{mono}")
    return " + ".join(terms)


def rep_str(rep) -> str:
    """A RepSum's canonical literal: its merged summands, in its order."""
    from .euler import RHO, RHO0, RHO0_MINUS

    parts = []
    for irrep, mult in rep.summands:
        if rep.group[0] == "SL2n":
            factors = []
            for i, m in enumerate(irrep.exponents, start=1):
                if m == 1:
                    factors.append(f"F@{i}")
                elif m >= 2:
                    factors.append(f"Sym({m})@{i}")
            lit = "*".join(factors) if factors else "Sym(0)@1"
        elif irrep.tag == RHO:
            lit = f"rho({irrep.m})"
        elif irrep.tag == RHO0:
            lit = "rho0"
        else:
            lit = "rho0-"
        parts.append(lit if mult == 1 else f"{mult}*{lit}")
    return " + ".join(parts)
