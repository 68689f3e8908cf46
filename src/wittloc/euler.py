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

A ``RepSum`` is its irrep multiset in one canonical order, so every class
above reads one form, and equal multisets compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from math import prod
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple

from .errors import BadParameters, UnsupportedIrrep
from .fields import FieldDescriptor
from .rings import (
    GradedElement,
    PresentationId,
    bnn,
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


@dataclass(frozen=True)
class SL2nIrrep:
    """Sym^{m_1}(F_1) (x) ... (x) Sym^{m_n}(F_n)."""

    exponents: Tuple[int, ...]

    def __post_init__(self):
        if any(isinstance(m, bool) or not isinstance(m, int) or m < 0 for m in self.exponents):
            raise BadParameters(f"Sym exponents must be integers >= 0, got {self.exponents!r}")

    @property
    def rank(self) -> int:
        return prod(m + 1 for m in self.exponents)


@dataclass(frozen=True)
class NIrrep:
    tag: str
    m: int = 0

    def __post_init__(self):
        if self.tag == RHO:
            if self.m < 1:
                raise BadParameters("rho(m) needs m >= 1")
        elif self.tag in (RHO0, RHO0_MINUS):
            if self.m:
                raise BadParameters(f"{self.tag} carries no exponent")
        else:
            raise BadParameters(f"unknown N-irrep tag {self.tag!r}")

    @property
    def rank(self) -> int:
        return 2 if self.tag == RHO else 1


def _sl2n_order(summand) -> Tuple[int, ...]:
    """SL2^n irreps by reversed exponents: F@1 before F@2."""
    return summand[0].exponents[::-1]


def _n_order(summand) -> Tuple:
    """N irreps by (tag, m)."""
    return summand[0].tag, summand[0].m


@dataclass(frozen=True)
class RepSum:
    """The irrep multiset of a representation over SL2^n or N: each irrep once
    with its total multiplicity, in the order of ``_sl2n_order`` or
    ``_n_order``, which ``whitney`` multiplies in.  So == and hash are
    multiset equality.  ``counts`` is the same multiset as a read-only
    mapping irrep -> multiplicity, in the same order; it and the hash are
    computed once, when the RepSum is made."""

    group: Tuple
    summands: Tuple[Tuple[object, int], ...]
    counts: Mapping = dc_field(init=False, repr=False, compare=False)
    _hash: int = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.group[0] == "SL2n":
            n, kind, order = self.group[1], SL2nIrrep, _sl2n_order
            if n < 1:
                raise BadParameters("n must be >= 1")
        elif self.group[0] == "N":
            n, kind, order = None, NIrrep, _n_order
        else:
            raise BadParameters(f"unknown group {self.group!r}")
        merged: Dict = {}
        for irrep, mult in self.summands:
            if type(mult) is not int or mult < 1:  # a bool is not a multiplicity
                raise BadParameters(f"multiplicities must be integers >= 1, got {mult!r}")
            if not isinstance(irrep, kind) or n is not None and len(irrep.exponents) != n:
                what = "N" if n is None else f"SL2n({n})"
                raise BadParameters(f"bad {what} irrep {irrep!r}")
            merged[irrep] = merged.get(irrep, 0) + mult
        summands = tuple(sorted(merged.items(), key=order))
        object.__setattr__(self, "summands", summands)
        object.__setattr__(self, "counts", MappingProxyType(dict(summands)))
        object.__setattr__(self, "_hash", hash((self.group, summands)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # copies and pickles are made anew: a mapping proxy does not pickle,
        # and a string's hash differs from one process to the next
        return RepSum, (self.group, self.summands)

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
