"""Parsing and printing for field tags, scalars, Witt-class expressions,
graded-ring expressions, and representation literals.

expr := term (('+' | '-') term)*
term := factor ('*' factor)*
factor := '-' factor | atom ('^' int)*
atom := '<' scalar '>' | int | name | '(' expr ')'

Unary minus binds looser than '^': -e1^2 is -(e1^2).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from . import fields as F
from .errors import ExprSyntaxError, UnknownGenerator
from .fields import (
    FINITE_PRIME,
    QUAD_EXT,
    FieldDescriptor,
    finite_prime,
    quad_ext,
    rationals,
    reals,
)
from .witt import WittClass, integer_class, square_class
from .rings import (BN_TWISTED_MODULE, GradedElement, PresentationId, from_witt, gen,
                    key_generators, sum_elements)

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([<>()@^*+,/-]))")


def tokenize(text: str) -> List[Tuple[str, str, int]]:
    """(kind, value, position) triples; kinds are 'int', 'name', 'sym'."""
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.group(1):
            out.append(("int", m.group(1), m.start(1)))
        elif m.group(2):
            out.append(("name", m.group(2), m.start(2)))
        else:
            out.append(("sym", m.group(3), m.start(3)))
        pos = m.end()
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
        t = self.peek()
        return t is not None and t[1] == value

    def done(self):
        t = self.peek()
        if t is not None:
            raise ExprSyntaxError(f"trailing input {t[1]!r}", t[2])


# ---------------------------------------------------------------------------
# field tags and scalars


def parse_field(tag: str) -> FieldDescriptor:
    tag = tag.strip()
    m = re.fullmatch(r"(.+?)\(sqrt:(.+)\)", tag)
    if m:
        base = parse_field(m.group(1))
        a = parse_scalar(m.group(2), base)
        return quad_ext(base, a)
    if tag == "Q":
        return rationals()
    if tag == "R":
        return reals()
    m = re.fullmatch(r"F(?:p:)?(\d+)", tag)
    if m:
        return finite_prime(int(m.group(1)))
    raise ExprSyntaxError(f"unknown field tag {tag!r}", 0)


def parse_scalar(text: str, field: FieldDescriptor):
    """A nonzero field element: fractions over Q/R, residues mod p, and
    'u+v*r' combinations over quadratic extensions (r is the square root)."""
    text = text.strip()
    if field.kind == FINITE_PRIME:
        m = re.fullmatch(r"-?\d+", text)
        if not m:
            raise ExprSyntaxError(f"bad residue {text!r}", 0)
        return F.coerce(field, int(text))
    try:
        if field.kind == QUAD_EXT:
            return _parse_quadext_scalar(text, field)
        return F.coerce(field, Fraction(text))
    except (ValueError, ZeroDivisionError):
        # a bad literal, or a denominator that is 0 in k: 1/0 over Q, 1/7 over F_7
        raise ExprSyntaxError(f"bad scalar {text!r}", 0)


def _parse_quadext_scalar(text: str, field: FieldDescriptor):
    base = field.base
    p = _Parser(text)

    u = F.zero(base)
    v = F.zero(base)
    while p.peek() is not None:
        neg = False
        while p.at("-") or p.at("+"):
            if p.next()[1] == "-":
                neg = not neg
        t = p.next()
        if t[0] == "name" and t[1] == "r":
            c = Fraction(-1 if neg else 1)
            v = F.add(base, v, F.coerce(base, c))
            continue
        if t[0] != "int":
            raise ExprSyntaxError(f"expected number or 'r' in {text!r}", t[2])
        c = Fraction(int(t[1]))
        if p.at("/"):
            p.next()
            d = p.next()
            if d[0] != "int":
                raise ExprSyntaxError("expected denominator", d[2])
            c /= int(d[1])
        if neg:
            c = -c
        if p.at("*"):
            p.next()
            t2 = p.next()
            if t2[1] != "r":
                raise ExprSyntaxError(f"expected 'r' in {text!r}", t2[2])
            v = F.add(base, v, F.coerce(base, c))
        elif p.at("r"):
            p.next()
            v = F.add(base, v, F.coerce(base, c))
        else:
            u = F.add(base, u, F.coerce(base, c))
    return F.coerce(field, (u, v))


# ---------------------------------------------------------------------------
# Witt-class and graded-ring expressions: one grammar, two atom rules


class _Atoms(NamedTuple):
    """What the atoms of an expression stand for."""

    field: FieldDescriptor
    lift: Callable  # a class <c> or t<1> -> value
    name: Optional[Callable]  # generator name -> value; None: names are not atoms
    squares: Dict  # text of c -> <c>: each distinct class literal is built once
    total: Callable  # list of values -> their sum


def parse_witt_expr(text: str, field: FieldDescriptor) -> WittClass:
    return _parse(text, _Atoms(field, lambda w: w, None, {}, lambda ws: sum(ws[1:], ws[0])))


def parse_ring_expr(text: str, pres: PresentationId) -> GradedElement:
    return _parse(text, _Atoms(pres.field, partial(from_witt, pres), partial(gen, pres), {},
                               partial(sum_elements, pres)))


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
    while p.at("*"):
        p.next()
        acc = acc * _factor(p, atoms)
    return acc


def _factor(p: _Parser, atoms: _Atoms):
    if p.at("-"):
        p.next()
        return -_factor(p, atoms)
    base = _atom(p, atoms)
    while p.at("^"):
        p.next()
        t = p.next()
        if t[0] != "int":
            raise ExprSyntaxError("exponent must be a nonnegative integer", t[2])
        acc = atoms.lift(integer_class(1, atoms.field))
        for _ in range(int(t[1])):
            acc = acc * base
        base = acc
    return base


def _atom(p: _Parser, atoms: _Atoms):
    t = p.peek()
    if t is None:
        raise ExprSyntaxError("unexpected end of expression", len(p.text))
    if t[1] == "<":
        p.next()
        text = _scalar_text(p)
        p.expect(">")
        if text not in atoms.squares:
            atoms.squares[text] = square_class(atoms.field, parse_scalar(text, atoms.field))
        return atoms.lift(atoms.squares[text])
    if t[1] == "(":
        p.next()
        inner = _expr(p, atoms)
        p.expect(")")
        return inner
    names = atoms.name is not None
    if t[0] == "int":
        p.next()
        k = atoms.lift(integer_class(int(t[1]), atoms.field))
        nxt = p.peek()
        if nxt is not None and (nxt[1] in ("<", "(") or (names and nxt[0] == "name")):
            # juxtaposition means multiplication: 3<2> = 3 * <2>, 2e1 = 2 * e1
            return k * _atom(p, atoms)
        return k
    if names and t[0] == "name":
        p.next()
        try:
            return atoms.name(t[1])
        except UnknownGenerator:
            raise ExprSyntaxError(f"unknown generator {t[1]!r}", t[2])
    raise ExprSyntaxError(f"unexpected token {t[1]!r}", t[2])


def _scalar_text(p: _Parser) -> str:
    """The tokens up to the matching '>', joined."""
    depth = 0
    parts = []
    while True:
        t = p.peek()
        if t is None:
            raise ExprSyntaxError("unterminated '<'", len(p.text))
        if t[1] == ">" and depth == 0:
            break
        if t[1] == "(":
            depth += 1
        elif t[1] == ")":
            depth -= 1
        parts.append(t[1])
        p.next()
    return "".join(parts)


# ---------------------------------------------------------------------------
# representation literals


def parse_rep(text: str, group_kind: str, n: int = 1):
    """Sums of irrep literals: Sym(m)@i, F@i (and '*'-products of those),
    rho(m), rho0, rho0-; an integer prefix 'k*' repeats a summand."""
    from .euler import NIrrep, RHO, RHO0, RHO0_MINUS, SL2nIrrep, n_rep, sl2n_rep

    p = _Parser(text)
    summands = []
    while True:
        mult = 1
        t = p.peek()
        if t is None:
            raise ExprSyntaxError("empty representation literal", 0)
        if t[0] == "int":
            p.next()
            mult = int(t[1])
            p.expect("*")
        if group_kind == "SL2n":
            exps = [0] * n
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
                exps[int(itok[1]) - 1] += m
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
    if group_kind == "SL2n":
        return sl2n_rep(n, summands)
    return n_rep(summands)


# ---------------------------------------------------------------------------
# printers


def witt_str(x: WittClass) -> str:
    return str(x)


def _mono_str(pres: PresentationId, key) -> str:
    names = key_generators(pres.kind, pres.n)
    parts = [s if m == 1 else f"{s}^{m}" for s, m in zip(names, key) if m]
    if pres.kind == BN_TWISTED_MODULE:
        parts.append("eT")
    return "*".join(parts)


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
