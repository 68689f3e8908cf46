"""Normal-form arithmetic in the presented graded W(k)-algebras.

Presentations:
  * BSL2n(n): polynomial ring W(k)[e_1..e_n], each e_i of degree 2, or
    its integral form (Z/N)[e_1..e_n] (``integral_bsl2n``; Z when N = 0),
    whose coefficients are Python ints and which ``witt_image`` maps
    injectively into W(k)[e_1..e_n];
  * BNn(n):   n-fold product of W(k)[x,e]/((1+x)e, x^2-1), x of degree 0;
  * TwistedPoint(ctx): W(k)[e,y]/(y^2 - 2(<1>-<a>), I_a*y, I_a*e) with the
    degree-0 generator x acting as the scalar <a>.

Each ring has a finite confluent rewrite system, applied eagerly so every
stored element is in normal form.  A ``PresentationId`` is one object
per value, like a field (``fields.Canonical``).

A monomial key, in every presentation, is the flat tuple of exponents of
``key_generators(kind, n)``: e1..en; x1, e1, x2, e2, ...; y, e.  Only this
module reads or writes keys, in the maps between presentations too: pi_*
from a twisted point to BN, and the localization of BN^n in
BSL2n(n).  Other modules name generators (``gen``, ``e_monomial``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add
from typing import Dict, List, Optional, Tuple

from . import fields as F
from .errors import (BadParameters, FieldMismatch, InconsistentField, PresentationMismatch,
                     UnknownGenerator, ZeroInput)
from .fields import Canonical, FieldDescriptor
from .quadext import QuadExtContext, in_Ia
from .witt import WittClass, integer_class, zero_class

BSL2N = "BSL2n"
BNN = "BNn"
TWISTED = "TwistedPoint"


class PresentationId(Canonical):
    """A presented ring with n >= 1 factors; ``integral`` (BSL2n only) takes
    coefficients in Z/N, N = ``modulus``, instead of W(field), and maps into
    its ``image``, BSL2n(n) over W(field) (None when not integral).  Only a
    twisted point has a context ``ctx``, over its field, and one factor."""

    _fields = ("kind", "n", "field", "ctx", "integral")
    __slots__ = _fields + ("modulus", "image")

    def __new__(cls, kind: str, n: int, field: FieldDescriptor,
                ctx: Optional[QuadExtContext] = None, integral: bool = False):
        return cls._canonical(kind, n, field, ctx, integral)

    def _made(self):
        kind, field, ctx = self.kind, self.field, self.ctx
        if kind not in _FACTOR_GENERATORS or not isinstance(field, FieldDescriptor):
            raise BadParameters(f"no presentation {kind!r} over {field!r}")
        check_factor_count(self.n)
        if type(self.integral) is not bool or self.integral and kind != BSL2N:
            raise BadParameters(f"integral is a bool, True only for {BSL2N}")
        twisted = kind == TWISTED
        if (ctx is not None) != twisted or twisted and (
                self.n != 1 or not isinstance(ctx, QuadExtContext)):
            raise BadParameters(f"a twisted point, and only it, has one factor and a context: "
                                f"got {kind} with {self.n} and {ctx!r}")
        if twisted and ctx.base is not field:
            raise InconsistentField(f"{ctx.base} vs {field}")
        object.__setattr__(self, "modulus", field.modulus if self.integral else 0)
        object.__setattr__(self, "image", bsl2n(self.n, field) if self.integral else None)

    def __str__(self):
        if self.kind == BSL2N:
            if self.integral:
                z = f"Z/{self.modulus}" if self.modulus else "Z"
                return f"BSL2n({self.n})/{z}, mapped into W({self.field})"
            return f"BSL2n({self.n})/{self.field}"
        if self.kind == BNN:
            return f"BN^{self.n}/{self.field}"
        return f"TwistedPoint({self.ctx.ext})"


def check_factor_count(n) -> None:
    """BadParameters unless n is an int >= 1, the factor count of a group
    or presentation."""
    if type(n) is not int:  # a bool is not a factor count
        raise BadParameters(f"n must be an integer, got {n!r}")
    if n < 1:
        raise BadParameters("n must be >= 1")


def bsl2n(n: int, field: FieldDescriptor) -> PresentationId:
    return PresentationId(BSL2N, n, field)


def integral_bsl2n(n: int, field: FieldDescriptor) -> PresentationId:
    """(Z/N)[e_1..e_n] with N = ``field.modulus``, the image of
    Z[e_1..e_n] in BSL2n(n) over field, which ``witt_image`` maps into it."""
    return PresentationId(BSL2N, n, field, integral=True)


def bnn(n: int, field: FieldDescriptor) -> PresentationId:
    return PresentationId(BNN, n, field)


def bn(field: FieldDescriptor) -> PresentationId:
    return bnn(1, field)


def twisted_point(ctx: QuadExtContext) -> PresentationId:
    return PresentationId(TWISTED, 1, ctx.base, ctx=ctx)


# ---------------------------------------------------------------------------
# monomial keys


# the generators of one factor of each presentation, in key order
_FACTOR_GENERATORS = {
    BSL2N: ("e",),
    BNN: ("x", "e"),
    TWISTED: ("y", "e"),
}


@lru_cache(maxsize=None)
def key_generators(kind: str, n: int) -> Tuple[str, ...]:
    """The generators whose exponents make up a monomial key of a ``kind``
    presentation with n factors, in key order; one factor drops the index."""
    letters = _FACTOR_GENERATORS[kind]
    if n == 1:
        return letters
    return tuple(f"{s}{i}" for i in range(1, n + 1) for s in letters)


def _unit_key(pres: PresentationId):
    return (0,) * len(key_generators(pres.kind, pres.n))


def key_degree(pres: PresentationId, key) -> int:
    """2 per power of an e; x and y have degree 0."""
    names = key_generators(pres.kind, pres.n)
    return 2 * sum(m for s, m in zip(names, key) if s[0] == "e")


def _coeff_is_zero(pres: PresentationId, key, c: WittClass) -> bool:
    # on the twisted point every coefficient but the constant one is taken mod I_a
    if pres.kind == TWISTED and key != (0, 0):
        return in_Ia(c, pres.ctx)
    return c.is_zero()


class GradedElement:
    """Normal-form element: dict from monomial key to nonzero coefficient,
    a WittClass, or an int (mod N when N > 0) when the presentation is integral."""

    __slots__ = ("pres", "coeffs")

    def __init__(self, pres: PresentationId, coeffs: Dict):
        if pres.integral:
            n = pres.modulus
            clean = ({k: r for k, c in coeffs.items() if (r := c % n)} if n
                     else {k: c for k, c in coeffs.items() if c})
        else:
            clean = {
                k: c for k, c in coeffs.items() if not _coeff_is_zero(pres, k, c)
            }
        object.__setattr__(self, "pres", pres)
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def _nonzero(cls, pres: PresentationId, coeffs: Dict) -> "GradedElement":
        """The element with coeffs, known to be nonzero and in normal form,
        built without testing them."""
        x = object.__new__(cls)
        object.__setattr__(x, "pres", pres)
        object.__setattr__(x, "coeffs", coeffs)
        return x

    def __setattr__(self, *_):
        raise AttributeError("GradedElement is immutable")

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degrees(self) -> List[int]:
        return sorted({key_degree(self.pres, k) for k in self.coeffs})

    def degree(self) -> Optional[int]:
        ds = self.degrees()
        return ds[0] if len(ds) == 1 else None

    def constant_coefficient(self) -> WittClass:
        zero = 0 if self.pres.integral else zero_class(self.pres.field)
        return self.coeffs.get(_unit_key(self.pres), zero)

    # -- ring operations ----------------------------------------------------

    def _check(self, other: "GradedElement"):
        if not isinstance(other, GradedElement):
            raise PresentationMismatch(f"expected GradedElement, got {other!r}")
        if other.pres != self.pres:
            raise PresentationMismatch(f"{self.pres} vs {other.pres}")

    def __add__(self, other: "GradedElement") -> "GradedElement":
        self._check(other)
        return sum_elements(self.pres, (self, other))

    def __neg__(self) -> "GradedElement":
        return GradedElement(self.pres, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self * from_int(self.pres, other)
        if isinstance(other, WittClass):
            return self * from_witt(self.pres, other)
        self._check(other)
        out: Dict = {}
        if self.pres.kind == BSL2N:
            # a polynomial ring: exponent vectors add, no extra coefficient
            for k1, c1 in self.coeffs.items():
                for k2, c2 in other.coeffs.items():
                    key = tuple(map(add, k1, k2))
                    c = c1 * c2
                    out[key] = out[key] + c if key in out else c
            return GradedElement(self.pres, out)
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                key, mult = _key_mul(self.pres, k1, k2)
                c = c1 * c2 if mult is None else c1 * c2 * mult
                out[key] = out[key] + c if key in out else c
        return GradedElement(self.pres, out)

    def __rmul__(self, other):
        if isinstance(other, (int, WittClass)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, k: int) -> "GradedElement":
        if k < 0:
            raise ZeroInput("negative powers need localization")
        if k == 0:
            return one_elem(self.pres)
        r = self
        for _ in range(k - 1):
            r = r * self
        return r

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedElement) or other.pres != self.pres:
            return False
        return (self - other).is_zero()

    def __hash__(self):
        return hash((self.pres, frozenset(self.coeffs.keys())))

    def __repr__(self):
        from .exprs import ring_str

        return f"GradedElement({ring_str(self)} in {self.pres})"


def _key_mul(pres: PresentationId, k1, k2) -> Tuple[tuple, Optional[WittClass]]:
    """Product of two normal-form monomials of BN^n or the twisted point:
    (key, extra coefficient or None)."""
    key = list(map(add, k1, k2))
    if pres.kind == TWISTED:
        if key[0] == 2:
            # y^2 = 2(<1> - <a>) = <1,1,-a,-a>
            return (0, key[1]), 2 * pres.ctx.one_minus_a
        return tuple(key), None
    sign = 1
    for i in range(0, len(key), 2):
        if key[i + 1]:
            # x*e = -e collapses any x in an e-carrying factor
            sign *= (-1) ** key[i]
            key[i] = 0
        else:
            key[i] %= 2
    return tuple(key), None if sign == 1 else integer_class(-1, pres.field)


# ---------------------------------------------------------------------------
# constructors and generators


def sum_elements(pres: PresentationId, xs) -> GradedElement:
    """The sum of the elements xs of pres, in one pass: their coefficients
    are merged into one dict, and each monomial of the result is tested for
    zero once."""
    out: Dict = {}
    for x in xs:
        for k, c in x.coeffs.items():
            out[k] = out[k] + c if k in out else c
    return GradedElement(pres, out)


def zero_elem(pres: PresentationId) -> GradedElement:
    return GradedElement(pres, {})


def from_witt(pres: PresentationId, w: WittClass) -> GradedElement:
    if pres.integral:
        raise PresentationMismatch(f"{pres} has integer coefficients, not W(k)")
    if w.field != pres.field:
        raise FieldMismatch(f"{w.field} vs {pres.field}")
    return GradedElement(pres, {_unit_key(pres): w})


def from_int(pres: PresentationId, n: int) -> GradedElement:
    if pres.integral:
        return GradedElement(pres, {_unit_key(pres): n})
    return from_witt(pres, integer_class(n, pres.field))


def one_elem(pres: PresentationId) -> GradedElement:
    return from_int(pres, 1)


def generator_names(pres: PresentationId) -> List[str]:
    """Every name ``gen`` accepts: the key generators letter by letter, and
    for one factor first their aliases e1, x1; then x (the scalar <a>) on
    the twisted point."""
    if pres.kind == TWISTED:
        return sorted(key_generators(TWISTED, 1)) + ["x"]
    letters = key_generators(pres.kind, 1)
    names = [f"{s}{i}" for s in letters for i in range(1, pres.n + 1)]
    return names + list(letters) if pres.n == 1 else names


def gen(pres: PresentationId, name: str) -> GradedElement:
    one = 1 if pres.integral else integer_class(1, pres.field)
    names = key_generators(pres.kind, pres.n)
    if pres.n == 1 and pres.kind in (BSL2N, BNN) and name in ("e1", "x1"):
        name = name[0]
    if pres.kind == TWISTED and name == "x":
        # the degree-0 class x restricts to the scalar <a>
        return from_witt(pres, WittClass.from_entries(pres.ctx.base, (pres.ctx.a,)))
    if name in names:
        i = names.index(name)
        return GradedElement(pres, {tuple(int(j == i) for j in range(len(names))): one})
    raise UnknownGenerator(f"{name!r} is not a generator of {pres}")


def e_monomial(pres: PresentationId, c, **powers: int) -> GradedElement:
    """c (an int, read as c<1>, or a WittClass) times e generators, named as
    in ``key_generators``, to powers >= 0: ``e_monomial(bn(k), 3, e=2)`` is
    3<1>*e^2, a normal form in every presentation with scalars."""
    names = key_generators(pres.kind, pres.n)
    if any(s not in names or s[0] != "e" or k < 0 for s, k in powers.items()):
        raise UnknownGenerator(f"{powers} are not powers of e generators of {pres}")
    # c at the unit key, or no term when c is 0; moved to the monomial's key
    x = from_int(pres, c) if isinstance(c, int) else from_witt(pres, c)
    key = tuple(powers.get(s, 0) for s in names)
    return GradedElement(pres, {key: v for v in x.coeffs.values()})


# ---------------------------------------------------------------------------
# pi: the twisted point over k(sqrt a) -> BN over k


@lru_cache(maxsize=None)
def twisted_push_unit(ctx: QuadExtContext) -> GradedElement:
    """pi_*(1) = <2> + <2a>x, the degree-2 transfer (Levine, Aspects of
    enumerative geometry with quadratic forms, Doc. Math. 2020)."""
    pres, two = bn(ctx.base), F.coerce(ctx.base, 2)
    two_cls = WittClass.from_entries(ctx.base, (two,))
    two_a_cls = WittClass.from_entries(ctx.base, (F.mul(ctx.base, two, ctx.a),))
    return from_witt(pres, two_cls) + from_witt(pres, two_a_cls) * gen(pres, "x")


def twisted_pushforward(t: GradedElement) -> GradedElement:
    """pi_* by the projection formula pi_*(t) = t~ * pi_*(1), t~ the y-free
    part of t: 1 -> <2> + <2a>x, e^m -> (<2> - <2a>)e^m for m > 0 (x*e = -e)
    and y -> 0.  <2> - <2a> kills I_a, so a coefficient of e^m or y,
    taken mod I_a, has one image."""
    if t.pres.kind != TWISTED:
        raise PresentationMismatch(f"cannot push {t.pres} to BN")
    # the key (0, m) is e^m in BN too; a stored coefficient is not in I_a, so not 0
    y_free = {k: c for k, c in t.coeffs.items() if not k[0]}
    unit = twisted_push_unit(t.pres.ctx)
    return GradedElement._nonzero(unit.pres, y_free) * unit


# ---------------------------------------------------------------------------
# the integral image


def witt_image(x: GradedElement) -> GradedElement:
    """Image of x under the injective ring map (Z/N)[e_1..e_n] ->
    W(k)[e_1..e_n] that sends a residue t to t<1>; x itself when its
    coefficients already lie in W(k).  The class of each distinct residue
    is built once, and as the map is injective no image is tested for 0."""
    if not x.pres.integral:
        return x
    field = x.pres.field
    classes: Dict[int, WittClass] = {}
    out: Dict = {}
    for k, c in x.coeffs.items():
        if c not in classes:
            classes[c] = integer_class(c, field)
        out[k] = classes[c]
    return GradedElement._nonzero(x.pres.image, out)


# ---------------------------------------------------------------------------
# localization


@dataclass(frozen=True)
class LocalizedElement:
    """The fraction numerator / inverted^1 over the carrier presentation."""

    pres: PresentationId          # carrier presentation after localizing
    numerator: GradedElement
    inverted: GradedElement       # homogeneous nonzero denominator

    def __repr__(self):
        from .exprs import ring_str

        return f"Localized(({ring_str(self.numerator)}) / ({ring_str(self.inverted)})^1)"


def localize_element(x: GradedElement, carrier: PresentationId) -> GradedElement:
    """Image of x in BN^n over k under the localization map into the carrier
    BSL2n(n) over W(k): each x_i maps to -1.  Any other x or carrier raises
    PresentationMismatch."""
    pres = x.pres
    if pres.kind != BNN or (carrier.kind, carrier.n, carrier.field, carrier.integral) != (
            BSL2N, pres.n, pres.field, False):
        raise PresentationMismatch(f"cannot localize {pres} into {carrier}")
    out: Dict = {}
    for key, c in x.coeffs.items():
        newkey = key[1::2]
        cc = -c if sum(key[::2]) % 2 else c
        out[newkey] = out[newkey] + cc if newkey in out else cc
    return GradedElement(carrier, out)
