"""Fixed-point localization problems and the Bott residue evaluator.

A problem is a group (SL2^n or N over a base field) plus a list of
0-dimensional fixed components.  Each component contributes the fraction
push(i^*(class)) / e(normal), whose denominator is kept as the multiset of
normal irreps, and the fractions sum to a polynomial (Bott's residue
formula).  They are summed once over a common multiple L of their
denominators and divided by e(L) once (``_sum_fractions``).  A RepSum is
its canonical irrep multiset, so a restricted one equal to the normal one
in any order is 1.  P^(2n) is built as Gr(1, 2n+1).

An SL2^n problem whose numerators have coefficients t<1> (each read once
by ``WittClass.integer_value``, exact over every field) is summed in
(Z/N)[e_1..e_n], N the additive order of <1> in W(k), and mapped into
W(k)[e_1..e_n] once; Z/N -> W(k) is injective, so the answer is the one
W(k) arithmetic would give.  ``exact_divide`` is long division by the
leading term in the lex order over Z, Z/N or W(k).  Every Euler class
divided by leads with t<1>, t odd, and the quotient by it is unique
(``WittClass.odd_quotient``, built from ``WittClass.signatures``), so a
failed step means no quotient exists; a leading coefficient that is a zero
divisor or not t<1> raises BadParameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from itertools import combinations
from math import prod
from operator import add, not_
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from . import fields as F
from .errors import (
    BadDimension,
    BadParameters,
    ExprSyntaxError,
    InconsistentField,
    NonInvertibleNormalEuler,
    PresentationMismatch,
    UnsupportedIrrep,
    UnsupportedResidueField,
)
from .euler import (
    SQUARE_ONLY,
    RepSum,
    _n_determinacy,
    double_factorial,
    fundamental,
    generic_euler,
    rep_group,
    whitney,
)
from .fields import FINITE_PRIME, REALS, FieldDescriptor
from .quadext import QuadExtContext
from .rings import (
    BNN,
    BSL2N,
    GradedElement,
    LocalizedElement,
    PresentationId,
    bnn,
    bsl2n,
    from_int,
    gen,
    integral_bsl2n,
    localize_element,
    one_elem,
    sum_elements,
    twisted_point,
    twisted_push_unit,
    twisted_pushforward,
    witt_image,
)
from .witt import WittClass

RATIONAL_POINT = "rational"


@dataclass(frozen=True)
class GroupDescriptor:
    kind: str  # "SL2n" or "N"
    n: int
    field: FieldDescriptor

    def __post_init__(self):
        rep_group(self.kind, self.n)


@dataclass(frozen=True)
class FixedComponent:
    id: str
    residue: Union[str, QuadExtContext]
    normal_rep: RepSum
    restricted: Union[RepSum, GradedElement]


@dataclass(frozen=True)
class LocalizationProblem:
    group: GroupDescriptor
    components: Tuple[FixedComponent, ...]
    M: Optional[int] = None

    def __post_init__(self):
        if self.M is not None and (type(self.M) is not int or self.M == 0):
            raise BadParameters(f"M must be a nonzero integer when provided, got {self.M!r}")
        if self.M is not None and self.group.kind == "SL2n":
            raise BadParameters(
                "M is the N-engine's localization multiplier; SL2n does not read it"
            )
        for c in self.components:
            _check_groups(c, self.group)


def _check_groups(c: FixedComponent, g: GroupDescriptor) -> None:
    """BadParameters unless the normal RepSum, and a restricted one, are
    representations of g: of N, or of SL2^n with g's n."""
    group = rep_group(g.kind, g.n)
    for role, rep in (("normal", c.normal_rep), ("restricted", c.restricted)):
        if isinstance(rep, RepSum) and rep.group != group:
            raise BadParameters(
                f"component {c.id}: {role} representation of {rep.group} in a {group} problem"
            )


@dataclass
class ResidueResult:
    """Exactly one of value and cleared is set: the polynomial the sum clears
    to, or else the fraction (sum) / e(L) with exponent 1."""

    value: Optional[LocalizedElement]
    cleared: Optional[GradedElement]
    degree_zero: Optional[WittClass]
    flags: Dict[str, bool] = dc_field(default_factory=dict)


# ---------------------------------------------------------------------------
# exact division in the polynomial carrier


def _coefficient_divider(d, pres: PresentationId) -> Callable:
    """c -> c / d or None, for the leading coefficient d of a denominator in
    pres: integer division over Z, multiplication by the inverse of d over
    Z/N, ``WittClass.odd_quotient`` over W(k)."""
    modulus = pres.modulus
    if pres.integral and not modulus:
        return lambda c: c // d if c % d == 0 else None
    t = d if pres.integral else d.integer_value()
    # Z/N has no ordering, so an even t is a zero divisor there too
    if t is None or (t % 2 == 0 and pres.field.kind != REALS):
        raise BadParameters(
            f"cannot divide by the leading coefficient {d!r}: a quotient is "
            "unique and certified only for t<1> with t odd"
        )
    if pres.integral:
        inverse = pow(t, -1, modulus)
        return lambda c: c * inverse % modulus
    return lambda c: c.odd_quotient(t)


def exact_divide(num: GradedElement, den: GradedElement) -> Optional[GradedElement]:
    """num / den in the polynomial carrier, over W(k), Z or Z/N, or None when
    den does not divide num.

    Long division by the leading term of den in the lex order: each step
    divides the remainder's leading coefficient by den's (integer division
    over Z, the inverse of an odd residue over Z/N, ``WittClass.odd_quotient``
    over W(k)) and subtracts that multiple of den, reducing mod N over Z/N.  The
    quotient is unique, so a failed step means den does not divide num.
    Over W(k) and Z/N den's leading coefficient must be t<1> with t odd (any
    t != 0 over R); any other one raises BadParameters.
    """
    if den.pres != num.pres or den.pres.kind != BSL2N:
        raise BadParameters("exact division works in the polynomial carrier")
    if den.is_zero():
        return None
    dk = max(den.coeffs)
    divide = _coefficient_divider(den.coeffs[dk], num.pres)
    modulus = num.pres.modulus
    is_zero = not_ if num.pres.integral else WittClass.is_zero
    tail = [(k, c) for k, c in den.coeffs.items() if k != dk]
    rem = dict(num.coeffs)
    quotient: Dict = {}
    while rem:
        lk = max(rem)
        mono = tuple(a - b for a, b in zip(lk, dk))
        # the leading term cancels by construction, so it is dropped untested
        q = None if min(mono) < 0 else divide(rem.pop(lk))
        if q is None:
            return None
        quotient[mono] = q
        for k, c in tail:
            key = tuple(map(add, mono, k))
            v = rem[key] - q * c if key in rem else -(q * c)
            if modulus:
                v %= modulus
            if is_zero(v):
                rem.pop(key, None)
            else:
                rem[key] = v
    return GradedElement(num.pres, quotient)


# ---------------------------------------------------------------------------
# component rings and pushforwards


def _check_residue(residue, g: GroupDescriptor) -> None:
    """UnsupportedResidueField or InconsistentField unless residue is a
    rational point, or for N a twisted point over g's field."""
    if residue == RATIONAL_POINT:
        return
    if g.kind == "SL2n":
        raise UnsupportedResidueField("SL2n components must be rational points")
    if not isinstance(residue, QuadExtContext):
        raise UnsupportedResidueField(f"unsupported residue data {residue!r}")
    if residue.base != g.field:
        raise InconsistentField(f"{residue.base} vs {g.field}")


def component_presentation(residue, g: GroupDescriptor) -> PresentationId:
    """The ring of a component with this residue data: BSL2n, BN or the
    twisted point."""
    _check_residue(residue, g)
    if g.kind == "SL2n":
        return bsl2n(g.n, g.field)
    return bnn(1, g.field) if residue == RATIONAL_POINT else twisted_point(residue)


def push_to_base(x, c: FixedComponent):
    """Pushforward from a component to the base ring: x itself from a
    rational point; from a twisted point pi_*(x) for a class x on it and
    x * pi_*(1) = pi_*(pi^* x) for a BN class x (the projection formula)."""
    if c.residue == RATIONAL_POINT:
        return x
    if not isinstance(c.residue, QuadExtContext):
        raise UnsupportedResidueField(f"unsupported residue data {c.residue!r}")
    if not isinstance(x, GradedElement):
        raise BadParameters(f"cannot push {x!r}")
    if x.pres.kind == BNN:
        return x * twisted_push_unit(c.residue)
    if x.pres.ctx != c.residue:
        raise PresentationMismatch(f"cannot push {x.pres} from component {c.id}")
    return twisted_pushforward(x)


# ---------------------------------------------------------------------------
# residues


def _component_fraction(
    c: FixedComponent, g: GroupDescriptor, carrier: PresentationId
) -> Tuple[Optional[GradedElement], Mapping]:
    """(numerator over carrier, denominator as a mapping normal irrep ->
    multiplicity); carrier is the localized base ring, or for SL2n its
    integral form, where an SL2n ring-expression restricted class must
    already live (``_integral_components`` lifts it).  A restricted RepSum
    cancels against the normal irreps first, in one pass over its distinct
    irreps: what is left of it is the numerator, and what is left of them
    the denominator, each in its RepSum's order.  A numerator of 1, at a
    rational point whose restricted RepSum cancels all of it, is None, so
    that nothing is multiplied by it."""
    _check_residue(c.residue, g)
    if _normal_class_vanishes(c.normal_rep, g.field):
        raise NonInvertibleNormalEuler(
            f"component {c.id}: generic Euler class of the normal bundle vanishes"
        )
    den, r = c.normal_rep.counts, c.restricted
    if g.kind == "N":
        if _n_determinacy(c.normal_rep) == SQUARE_ONLY:
            raise NonInvertibleNormalEuler(
                f"component {c.id}: normal Euler class has no invertible representative"
            )
        # m*e with m even is a zero divisor (not over R), so e.g. 4e^2 / 4e^2
        # has more quotients than 1, even where it cancels
        if g.field.kind != REALS and any(irrep.m % 2 == 0 for irrep in den):
            raise BadParameters(f"component {c.id}: the normal class leads with an even integer")
        # a restricted class equal to the normal one passed the test above
        if isinstance(r, RepSum) and _n_determinacy(r) == SQUARE_ONLY:
            raise NonInvertibleNormalEuler(
                f"component {c.id}: restricted class only known by its square"
            )
    if isinstance(r, RepSum):
        left, den = [], den.copy()
        for irrep, k in r.summands:
            have = den.get(irrep, 0)
            if have > k:
                den[irrep] = have - k  # keeps its place in the normal order
            else:
                den.pop(irrep, None)
                if k > have:
                    left.append((irrep, k - have))
        num = whitney(left, carrier) if left else None
        if c.residue != RATIONAL_POINT:  # pi_*(pi^* r) = r * pi_*(1), the projection formula
            num = _times(num, localize_element(twisted_push_unit(c.residue), carrier))
        return num, den
    if g.kind == "SL2n":
        return r, den  # over carrier already: see ``_integral_components``
    r = push_to_base(r, c)
    if r.pres.kind != BNN:
        raise BadParameters("restricted class must live over BN")
    return localize_element(r, carrier), den


@lru_cache(maxsize=None)
def _single_irrep(group: Tuple, irrep) -> RepSum:
    """The RepSum of one copy of irrep, built once per (group, irrep)."""
    return RepSum(group, ((irrep, 1),))


def _normal_class_vanishes(rep: RepSum, field: FieldDescriptor) -> bool:
    """Whether e(rep) = 0: for SL2n when the generic square of one of its
    distinct irreps is, as e(rep) is their Whitney product and each nonzero
    factor leads with an odd integer (every irrep is tested, so a shape
    with no closed form raises UnsupportedIrrep); for N, +-c*e^K with
    c = prod m^(k_m) (m = 0 for rho0, rho0-), when the additive order of
    <1> divides c^2.  The one-irrep RepSums and their squares are memoized
    (``_single_irrep``, ``generic_euler``), so an irrep that recurs across
    components and problems is squared and mapped into W(k) once per field."""
    if rep.group[0] == "SL2n":
        squares = [generic_euler(_single_irrep(rep.group, irrep), field)
                   for irrep, _ in rep.summands]
        return any(x.is_zero() for x in squares)
    c, modulus = prod(irrep.m ** k for irrep, k in rep.summands), field.modulus
    return c == 0 or modulus != 0 and c * c % modulus == 0


def _integral_lift(x: GradedElement, carrier: PresentationId) -> Optional[GradedElement]:
    """The preimage in the integral carrier of a W(k) polynomial whose
    coefficients are all integer classes (``WittClass.integer_value``), or None."""
    out: Dict = {}
    for k, c in x.coeffs.items():
        t = c.integer_value()
        if t is None:
            return None
        out[k] = t
    return GradedElement(carrier, out)


def _integral_components(p: LocalizationProblem, base: PresentationId,
                         carrier: PresentationId) -> Optional[List[FixedComponent]]:
    """The components of an SL2n problem that can be summed in carrier,
    (Z/N)[e_1..e_n], N = ``k.modulus``, each ring-expression restricted
    class over base, BSL2n(n), lifted there once; None for any other
    problem.  Z/N -> W(k) is injective and Whitney-product denominators
    lead with +-(odd), a unit of Z/N (over Z the signature forces the
    quotient), so each division step stays in the image of Z/N and maps to
    the only quotient over W(k).  Numerators must be Whitney products or
    ring expressions whose coefficients read as integers."""
    if p.group.kind != "SL2n":
        return None
    out = []
    for c in p.components:
        r = c.restricted
        if not isinstance(r, RepSum):
            r = _integral_lift(r, carrier) if r.pres == base else None
            if r is None:
                return None
            c = FixedComponent(c.id, c.residue, c.normal_rep, r)
        out.append(c)
    return out


def _times(x: Optional[GradedElement], y: Optional[GradedElement]) -> Optional[GradedElement]:
    """x*y, where None stands for 1."""
    return y if x is None else x if y is None else x * y


def _sum_fractions(fractions: List[Tuple[Optional[GradedElement], Mapping]],
                   carrier: PresentationId):
    """(sum, e(L) or None, quotient or None) for fractions n_i / d_i over
    carrier, each n_i an element or None for 1 and each d_i a mapping irrep
    -> multiplicity.  L takes each irrep's maximum multiplicity; the
    n_i * e(L - d_i) are summed once (n_i itself when d_i = L) and divided
    by e(L) once, or not at all when L is empty.  Any common multiple would
    do: e(L) leads with an odd integer, so the quotient is unique."""
    L: Dict = {}
    for _, den in fractions:
        for irrep, k in den.items():
            if k > L.get(irrep, 0):
                L[irrep] = k
    cofactors = []
    for _, den in fractions:
        rest = [(irrep, k - den.get(irrep, 0)) for irrep, k in L.items() if k > den.get(irrep, 0)]
        cofactors.append(whitney(rest, carrier) if rest else None)
    terms = (_times(num, x) for (num, _), x in zip(fractions, cofactors))
    total = sum_elements(carrier, [one_elem(carrier) if t is None else t for t in terms])
    if not L:
        return total, None, total
    # e(L) = e(L - d_0) * e(d_0), as d_0 lies in L
    D = whitney(fractions[0][1].items(), carrier, out=cofactors[0])
    return total, D, exact_divide(total, D)


def bott_residue(p: LocalizationProblem) -> ResidueResult:
    g = p.group
    flags: Dict[str, bool] = {}
    if (g.field.base or g.field).kind == FINITE_PRIME:  # F_p or F_p(sqrt a)
        flags["finite_char"] = True
    # an even M may kill an answer when <1> has finite order (M is N-only)
    if p.M is not None and p.M % 2 == 0 and g.field.modulus:
        flags["potentially_vacuous"] = True

    # the N-engine has n = 1, and its base carrier is BSL2n(1) too
    carrier = bsl2n(g.n, g.field)
    integral = integral_bsl2n(g.n, g.field) if g.kind == "SL2n" else None
    comps = _integral_components(p, carrier, integral)
    work = carrier if comps is None else integral
    fractions = [_component_fraction(c, g, work) for c in comps or p.components]
    total, D, cleared = _sum_fractions(fractions, work)
    if cleared is None:
        value = LocalizedElement(carrier, witt_image(total), witt_image(D))
        return ResidueResult(value, None, None, flags)
    cleared = witt_image(cleared)
    scalar = cleared.is_zero() or cleared.degree() == 0
    return ResidueResult(None, cleared, cleared.constant_coefficient() if scalar else None, flags)


# ---------------------------------------------------------------------------
# built-in problem generators (projective spaces and Grassmannians)


def build_projective_problem(dim: int, n: int, field: FieldDescriptor) -> LocalizationProblem:
    """P^dim as Gr(1, dim + 1): one fixed component, I={}, for dim = 2n."""
    GroupDescriptor("SL2n", n, field)  # rejects n < 1 first
    if dim not in (2 * n - 1, 2 * n):
        raise BadDimension(f"dim must be 2n-1 or 2n for n={n}, got {dim}")
    return build_grassmannian_problem(1, dim + 1, n, field)


def build_grassmannian_problem(
    m: int, ambient: int, n: int, field: FieldDescriptor
) -> LocalizationProblem:
    g = GroupDescriptor("SL2n", n, field)  # rejects n < 1 first
    if type(ambient) is not int or ambient not in (2 * n, 2 * n + 1):
        raise BadParameters(f"ambient must be the integer 2n or 2n+1 for n={n}, got {ambient!r}")
    if type(m) is not int or not 0 < m < ambient:
        raise BadParameters(f"need an integer 0 < m < ambient, got m={m!r}")
    comps: List[FixedComponent] = []
    extra_line = ambient == 2 * n + 1
    if m % 2 == 1 and not extra_line:
        # no invariant odd-dimensional subspaces of a sum of 2-dim irreps
        return LocalizationProblem(g, ())
    r = m // 2
    if r > n:
        raise BadParameters(f"m={m} exceeds the invariant-subspace range")
    for I in combinations(range(1, n + 1), r):
        J = tuple(i for i in range(1, n + 1) if i not in I)
        summands = [(fundamental(n, i, j), 1) for i in I for j in J]
        if extra_line:
            if m % 2 == 1:
                # W = F_I + trivial line; Hom(line, F_j) adds each F_j
                summands += [(fundamental(n, j), 1) for j in J]
            else:
                # V/W contains the trivial line; Hom(F_i, line) adds each F_i
                summands += [(fundamental(n, i), 1) for i in I]
        if not summands:
            raise BadParameters("degenerate fixed component with no normal directions")
        normal = RepSum(("SL2n", n), tuple(summands))
        comp = FixedComponent(
            f"I={{{','.join(map(str, I))}}}", RATIONAL_POINT, normal, normal
        )
        comps.append(comp)
    return LocalizationProblem(g, tuple(comps))


def build_hypersurface_lines_problem(N: int, field: FieldDescriptor) -> LocalizationProblem:
    """Lines on a degree-(2N-3) hypersurface in P^N, N odd, of degree
    (2N-3)!!<1>: Gr(2, 2m), m = (N+1)/2, with SL2^m acting on F_1 + ... + F_m,
    fixed at each plane F_i.  The numerator there is (-1)^#{j<i} times
    e(Sym^(2N-3) F_i): normal classes are stored as prod (e_lo^2 - e_hi^2),
    and the sign turns each into the class prod_{j != i} (e_i^2 - e_j^2) of
    the normal bundle sum_j Hom(F_i, F_j)."""
    if type(N) is not int or N < 3 or N % 2 == 0:
        raise BadParameters(f"N must be odd and at least 3, got {N}")
    m = (N + 1) // 2
    pres = bsl2n(m, field)
    comps = []
    for i in range(1, m + 1):
        normal = RepSum(("SL2n", m),
                        tuple((fundamental(m, i, j), 1) for j in range(1, m + 1) if j != i))
        num = from_int(pres, (-1) ** (i - 1) * double_factorial(2 * N - 3))
        num = num * gen(pres, f"e{i}") ** (N - 1)
        comps.append(FixedComponent(f"F{i}", RATIONAL_POINT, normal, num))
    return LocalizationProblem(GroupDescriptor("SL2n", m, field), tuple(comps))


# ---------------------------------------------------------------------------
# JSON problem files


def problem_to_json(p: LocalizationProblem) -> dict:
    from .exprs import rep_str, ring_str

    comps = []
    for c in p.components:
        entry: dict = {"id": c.id, "normal": rep_str(c.normal_rep)}
        if isinstance(c.residue, QuadExtContext):
            entry["residue"] = {
                "twisted": {"a": F.scalar_repr(c.residue.base, c.residue.a)}
            }
        else:
            entry["residue"] = RATIONAL_POINT
        if isinstance(c.restricted, RepSum):
            entry["restricted"] = rep_str(c.restricted)
        else:
            entry["restricted"] = ring_str(c.restricted)
        comps.append(entry)
    out = {
        "group": {"kind": p.group.kind, "n": p.group.n, "field": str(p.group.field)},
        "components": comps,
    }
    if p.M is not None:
        out["invert"] = {"M": p.M}
    return out


_JSON_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer"}
_REQUIRED = object()


def _json_value(doc: dict, key: str, where: str, kind: type, default=_REQUIRED):
    """doc[key], which must be of the JSON kind ``kind`` (an int is not a
    bool), or ``default`` when the key is absent and not required."""
    if key not in doc:
        if default is _REQUIRED:
            raise ExprSyntaxError(f"{where} has no {key!r} key")
        return default
    x = doc[key]
    if isinstance(x, bool) or not isinstance(x, kind):
        raise ExprSyntaxError(f"{where}: {key!r} must be {_JSON_KINDS[kind]}, got {x!r}")
    return x


def _known_keys(doc: dict, where: str, keys: Tuple[str, ...]) -> None:
    unknown = [k for k in doc if k not in keys]
    if unknown:
        raise ExprSyntaxError(f"{where} has unknown key {unknown[0]!r}")


def problem_from_json(doc: dict) -> LocalizationProblem:
    """The problem a JSON document describes (the layout ``problem_to_json``
    writes).  A document or component that is not an object, a missing
    required key, a key that nothing reads, or a value of the wrong kind
    (an ``n`` or ``M`` that is not an integer) raises ExprSyntaxError
    naming it; a component's ``twist`` raises UnsupportedIrrep."""
    from .exprs import is_rep_literal, parse_field, parse_rep, parse_ring_expr, parse_scalar
    from .quadext import make_context

    if not isinstance(doc, dict):
        raise ExprSyntaxError(f"a problem must be a JSON object, got {doc!r}")
    _known_keys(doc, "problem", ("group", "components", "invert"))
    gdoc = _json_value(doc, "group", "problem", dict)
    _known_keys(gdoc, "group", ("kind", "n", "field"))
    field = parse_field(_json_value(gdoc, "field", "group", str))
    n = _json_value(gdoc, "n", "group", int, 1)
    g = GroupDescriptor(_json_value(gdoc, "kind", "group", str), n, field)
    comps: List[FixedComponent] = []
    for i, cdoc in enumerate(_json_value(doc, "components", "problem", list, [])):
        if not isinstance(cdoc, dict):
            raise ExprSyntaxError(f"component {i} must be a JSON object, got {cdoc!r}")
        cid = _json_value(cdoc, "id", f"component {i}", str, str(i))
        where = f"component {cid}"
        if "twist" in cdoc:
            raise UnsupportedIrrep(
                f"{where}: 'twist' (twisted-module coefficients) is not supported"
            )
        _known_keys(cdoc, where, ("id", "residue", "normal", "restricted"))
        residue = cdoc.get("residue", RATIONAL_POINT)
        if isinstance(residue, dict):
            _known_keys(residue, f"{where} residue", ("twisted",))
            twisted = _json_value(residue, "twisted", f"{where} residue", dict)
            _known_keys(twisted, f"{where} twisted residue", ("a",))
            a = parse_scalar(_json_value(twisted, "a", f"{where} twisted residue", str), field)
            residue = make_context(field, a)
        elif residue != RATIONAL_POINT:
            raise UnsupportedResidueField(f"unsupported residue {residue!r}")
        normal_text = _json_value(cdoc, "normal", where, str)
        normal = parse_rep(normal_text, g.kind, g.n)
        restricted_text = _json_value(cdoc, "restricted", where, str, normal_text)
        restricted: Union[RepSum, GradedElement] = normal
        if restricted_text != normal_text:  # else the literal is read once
            # an irrep name first makes a representation literal, else a ring expression
            if is_rep_literal(restricted_text):
                restricted = parse_rep(restricted_text, g.kind, g.n)
            else:
                restricted = parse_ring_expr(restricted_text, component_presentation(residue, g))
        comps.append(FixedComponent(cid, residue, normal, restricted))
    invert = _json_value(doc, "invert", "problem", dict, {})
    _known_keys(invert, "invert", ("M",))
    M = None if invert.get("M") is None else _json_value(invert, "M", "invert", int)
    return LocalizationProblem(g, tuple(comps), M)
