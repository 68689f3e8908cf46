"""Euler classes of SL2^n- and N-representations.

Supported SL2^n shapes: a single Sym^m factor (m odd: m!!*e_i^((m+1)/2),
of degree m + 1 = rank (Levine, Nagoya Math. J. 2019), which is e_i for
m = 1; m even: 0 by odd rank), a tensor product of two fundamental factors
(e_i^2 - e_j^2), and the all-even vanishing case.  These formulas, the
Whitney products and their squares all have integer coefficients, so
SL2^n classes are computed in (Z/N)[e_1..e_n] (``integral_bsl2n``) and
mapped into W(k)[e_1..e_n] once, when a public function returns them.
For N, e(O~(m)) is +-m*e for odd m (sign surfaced as determinacy metadata)
and only its square m^2 e^2 is available for even m; a sum with k_m copies
of rho(m) has class c*e^K and square c^2*e^(2K), c = prod m^(k_m) and
K = sum k_m.  Every class and square is a ``whitney`` product.

Irreps and RepSums are one object per value (``fields.Canonical``:
checked, then looked up), so == and hash are identity, and a copy or
pickle is the same object.  A ``RepSum`` is its irrep multiset in one
canonical order, so every class above reads one form, and equal
multisets are one RepSum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod
from types import MappingProxyType
from typing import Dict, Optional, Tuple

from .errors import BadParameters, UnsupportedIrrep
from .fields import Canonical, FieldDescriptor
from .rings import (
    GradedElement,
    PresentationId,
    bnn,
    check_factor_count,
    from_int,
    gen,
    integral_bsl2n,
    one_elem,
    witt_image,
    zero_elem,
)

EXACT = "exact"
UP_TO_SIGN = "up_to_sign"
SQUARE_ONLY = "square_only"

RHO = "rho"
RHO0 = "rho0"
RHO0_MINUS = "rho0-"


class SL2nIrrep(Canonical):
    """Sym^{m_1}(F_1) (x) ... (x) Sym^{m_n}(F_n), one object per exponent
    tuple; ``order`` is the tuple reversed, the key of ``_sl2n_order``."""

    _fields = ("exponents",)
    __slots__ = _fields + ("order",)

    def __new__(cls, exponents: Tuple[int, ...]):
        # checked before the lookup: (True,) == (1,) is not an exponent tuple
        if type(exponents) is not tuple or any(type(m) is not int or m < 0 for m in exponents):
            raise BadParameters(
                f"Sym exponents must be integers >= 0, in a tuple, got {exponents!r}")
        return cls._canonical(exponents)

    def _made(self):
        object.__setattr__(self, "order", self.exponents[::-1])

    @property
    def rank(self) -> int:
        return prod(m + 1 for m in self.exponents)


class NIrrep(Canonical):
    """rho(m), rho0 or rho0-, one object per (tag, m)."""

    __slots__ = _fields = ("tag", "m")

    def __new__(cls, tag: str, m: int = 0):
        if type(m) is not int:  # a bool is not an exponent
            raise BadParameters(f"an N-irrep exponent must be an integer, got {m!r}")
        if tag == RHO:
            if m < 1:
                raise BadParameters("rho(m) needs m >= 1")
        elif tag in (RHO0, RHO0_MINUS):
            if m:
                raise BadParameters(f"{tag} carries no exponent")
        else:
            raise BadParameters(f"unknown N-irrep tag {tag!r}")
        return cls._canonical(tag, m)

    @property
    def rank(self) -> int:
        return 2 if self.tag == RHO else 1


def _sl2n_order(summand) -> Tuple[int, ...]:
    """SL2^n irreps by reversed exponents: F@1 before F@2."""
    return summand[0].order


def _n_order(summand) -> Tuple:
    """N irreps by (tag, m)."""
    return summand[0].tag, summand[0].m


def rep_group(kind: str, n: int = 1) -> Tuple:
    """The group of a RepSum: ("SL2n", n) for an int n >= 1, or ("N",) for
    n = 1; BadParameters for any other kind or n."""
    if kind not in ("SL2n", "N"):
        raise BadParameters(f"unknown group kind {kind!r}")
    check_factor_count(n)
    if kind == "N" and n != 1:
        raise BadParameters("the N-engine handles a single factor")
    return (kind, n) if kind == "SL2n" else ("N",)


class RepSum(Canonical):
    """The irrep multiset of a representation over SL2^n or N, one object
    per multiset: each irrep once with its total multiplicity, in the order
    of ``_sl2n_order`` or ``_n_order``, which ``whitney`` multiplies in.
    ``counts`` is the same multiset as a read-only mapping irrep ->
    multiplicity, in the same order, made once with the RepSum."""

    _fields = ("group", "summands")
    __slots__ = _fields + ("counts",)

    def __new__(cls, group: Tuple, summands: Tuple[Tuple[object, int], ...]):
        if type(group) is not tuple or not group or group != rep_group(*group[:2]):
            raise BadParameters(f"unknown group {group!r}")
        kind, order = (SL2nIrrep, _sl2n_order) if group[0] == "SL2n" else (NIrrep, _n_order)
        merged: Dict = {}
        for irrep, mult in summands:
            if type(mult) is not int or mult < 1:  # a bool is not a multiplicity
                raise BadParameters(f"multiplicities must be integers >= 1, got {mult!r}")
            if not isinstance(irrep, kind) or kind is SL2nIrrep and len(irrep.exponents) != group[1]:
                what = f"SL2n({group[1]})" if kind is SL2nIrrep else "N"
                raise BadParameters(f"bad {what} irrep {irrep!r}")
            merged[irrep] = merged.get(irrep, 0) + mult
        return cls._canonical(group, tuple(sorted(merged.items(), key=order)))

    def _made(self):
        object.__setattr__(self, "counts", MappingProxyType(dict(self.summands)))

    @property
    def rank(self) -> int:
        return sum(irrep.rank * mult for irrep, mult in self.summands)

    def concat(self, other: "RepSum") -> "RepSum":
        if other.group != self.group:
            raise BadParameters(f"{other.group} vs {self.group}")
        return RepSum(self.group, self.summands + other.summands)


def sl2n_rep(n: int, items) -> RepSum:
    """items: irreps or exponent tuples, each alone or with a multiplicity."""
    pairs = [it if isinstance(it, tuple) and len(it) == 2 and isinstance(it[0], (tuple, SL2nIrrep))
             else (it, 1) for it in items]
    return RepSum(("SL2n", n), tuple(
        (x if isinstance(x, SL2nIrrep) else SL2nIrrep(tuple(x)), k) for x, k in pairs))


def n_rep(items) -> RepSum:
    """items: N irreps, each alone or with a multiplicity."""
    return RepSum(("N",), tuple(it if isinstance(it, tuple) else (it, 1) for it in items))


@lru_cache(maxsize=None)
def fundamental(n: int, *indices: int) -> SL2nIrrep:
    """F_i, or F_i (x) F_j (x) ... for more factor indices, each in 1..n and
    named once; built once per (n, indices)."""
    if not indices or len(set(indices)) < len(indices) or not all(1 <= i <= n for i in indices):
        raise BadParameters(f"need distinct factor indices in 1..{n}, got {indices}")
    return SL2nIrrep(tuple(1 if j in indices else 0 for j in range(1, n + 1)))


@dataclass(frozen=True)
class EulerClassValue:
    """An Euler class together with how well-defined it is, and its square,
    which is always well-defined.  For SL2^n the value and its square are
    computed over Z/N and each is mapped into W(k) once; both fields always
    hold W(k) classes."""

    value: Optional[GradedElement]
    determinacy: str
    known_square: GradedElement


def double_factorial(m: int) -> int:
    return prod(range(m, 0, -2))


# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _irrep_euler(irrep, pres: PresentationId) -> GradedElement:
    """e(irrep) in pres, built once: an SL2^n shape above, or m*e for rho(m)."""
    if isinstance(irrep, NIrrep):
        return from_int(pres, irrep.m) * gen(pres, "e")  # rho0 and rho0- have m = 0
    nz = [(i, m) for i, m in enumerate(irrep.exponents, start=1) if m]
    if all(m % 2 == 0 for _, m in nz):
        # includes the single even-exponent case: odd rank forces vanishing
        return zero_elem(pres)
    if len(nz) == 1:
        i, m = nz[0]
        ei = gen(pres, f"e{i}")
        return ei if m == 1 else from_int(pres, double_factorial(m)) * ei ** ((m + 1) // 2)
    if len(nz) == 2 and all(m == 1 for _, m in nz):
        # e(F_i (x) F_j) = e_i^2 - e_j^2 for i < j
        ei, ej = (gen(pres, f"e{i}") for i, _ in nz)
        return ei * ei - ej * ej
    raise UnsupportedIrrep(
        f"no closed Euler-class formula for exponents {irrep.exponents}"
    )


def whitney(pairs, pres: PresentationId, power: int = 1, out=None) -> GradedElement:
    """out times e(irrep)^(power*mult) over the (irrep, mult) pairs, in the
    presentation pres (BSL2n over Z/N or W(k), or BN), multiplied on one
    factor at a time from out, or from the first factor when out is None
    (1 when there are no pairs either).  Squaring factor by factor is
    cheaper than squaring the product, whose terms multiply pairwise."""
    for irrep, mult in pairs:
        x = _irrep_euler(irrep, pres) ** (power * mult)
        out = x if out is None else out * x
    return one_elem(pres) if out is None else out


def _n_determinacy(rep: RepSum) -> str:
    """How well e(rep) is defined for an N RepSum, read off its multiplicities:
    exact when it is 0 (a rho0 or rho0- is present) or every count is even,
    as same-m signs square away pairwise; square only when an even m comes
    an odd number of times; else up to sign."""
    counts = [(irrep.m, k) for irrep, k in rep.summands if irrep.tag == RHO]
    if len(counts) < len(rep.summands):
        return EXACT
    if any(m % 2 == 0 and k % 2 for m, k in counts):
        return SQUARE_ONLY
    return UP_TO_SIGN if any(k % 2 for _, k in counts) else EXACT


def _class_ring(rep: RepSum, field: FieldDescriptor) -> PresentationId:
    """Where the classes of rep multiply: (Z/N)[e_1..e_n] for SL2^n, BN for N."""
    return integral_bsl2n(rep.group[1], field) if rep.group[0] == "SL2n" else bnn(1, field)


def euler_rep(rep: RepSum, field: FieldDescriptor) -> EulerClassValue:
    """Whitney products over the summands with multiplicities: the class,
    unless only its square is defined, and the square."""
    pres = _class_ring(rep, field)
    determinacy = EXACT if rep.group[0] == "SL2n" else _n_determinacy(rep)
    value = None if determinacy == SQUARE_ONLY else witt_image(whitney(rep.summands, pres))
    return EulerClassValue(value, determinacy, witt_image(whitney(rep.summands, pres, 2)))


@lru_cache(maxsize=None)
def generic_euler(rep: RepSum, field: FieldDescriptor) -> GradedElement:
    """The well-defined square representative e(V^gen)^2; 0 for odd rank.
    Memoized per (rep, field), like ``_irrep_euler``: the square is built
    and mapped into W(k) once per process (an error is not cached)."""
    pres = _class_ring(rep, field)
    return witt_image(zero_elem(pres) if rep.rank % 2 else whitney(rep.summands, pres, 2))
