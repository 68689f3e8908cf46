"""Exact arithmetic in Witt rings W(k) with canonical-form equality.

Supported k: Q, R, F_p (p odd), and one quadratic step k0(sqrt(a)).  Over
Q, R, F_p, F_{p^2} and C a class is stored as its complete invariant key
(signature, second residues and dyadic slot over Q; signature over R; rank
parity and discriminant class over the others); sums, negations, integer
multiples and equality work on keys, and the diagonal representative that
transfers, general products and printing read is built from the key on
first use.  W(Q(sqrt a)) has no key here: its classes store a reduced
representative, and equality runs a decision procedure.  Each entry is
normalized once, in closed form, when it enters through ``from_entries``
(``_normalize_qext_entry``); sums only cancel hyperbolic pairs among the
stored entries, and integer multiples are written down (each entry
repeated), so no stored entry is normalized again.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import fields as F
from . import places
from .errors import (
    DegenerateForm,
    FieldMismatch,
    NonSymmetric,
    Undecided,
    UnsupportedField,
    ZeroInput,
)
from .fields import FINITE_PRIME, QUAD_EXT, RATIONALS, REALS, FieldDescriptor


@dataclass(frozen=True)
class QuadraticForm:
    field: FieldDescriptor
    entries: Tuple

    @property
    def rank(self) -> int:
        return len(self.entries)


def form(field: FieldDescriptor, entries: Sequence) -> QuadraticForm:
    coerced = []
    for c in entries:
        e = F.coerce(field, c)
        if F.is_zero(field, e):
            raise ZeroInput("diagonal entries must be nonzero")
        coerced.append(e)
    return QuadraticForm(field, tuple(coerced))


# ---------------------------------------------------------------------------
# Gram-matrix diagonalization (char != 2 symmetric elimination)


def diagonalize(gram: Sequence[Sequence], field: FieldDescriptor) -> QuadraticForm:
    n = len(gram)
    M = [[F.coerce(field, gram[i][j]) for j in range(n)] for i in range(n)]
    if any(len(row) != n for row in gram):
        raise NonSymmetric("matrix is not square")
    for i in range(n):
        for j in range(i + 1, n):
            if not F.is_zero(field, F.sub(field, M[i][j], M[j][i])):
                raise NonSymmetric(f"entry ({i},{j}) differs from ({j},{i})")
    entries = []
    for k in range(n):
        if F.is_zero(field, M[k][k]):
            swap = next(
                (j for j in range(k + 1, n) if not F.is_zero(field, M[j][j])), None
            )
            if swap is not None:
                M[k], M[swap] = M[swap], M[k]
                for row in M:
                    row[k], row[swap] = row[swap], row[k]
            else:
                off = next(
                    (j for j in range(k + 1, n) if not F.is_zero(field, M[k][j])), None
                )
                if off is None:
                    raise DegenerateForm("matrix has determinant zero")
                # add row/column `off` to k: new diagonal entry is 2*M[k][off]
                for j in range(n):
                    M[k][j] = F.add(field, M[k][j], M[off][j])
                for i in range(n):
                    M[i][k] = F.add(field, M[i][k], M[i][off])
        d = M[k][k]
        entries.append(d)
        factors = [F.div(field, M[i][k], d) for i in range(k + 1, n)]
        for i, f in zip(range(k + 1, n), factors):
            if F.is_zero(field, f):
                continue
            for j in range(n):
                M[i][j] = F.sub(field, M[i][j], F.mul(field, f, M[k][j]))
        for i, f in zip(range(k + 1, n), factors):
            if F.is_zero(field, f):
                continue
            for j in range(n):
                M[j][i] = F.sub(field, M[j][i], F.mul(field, f, M[j][k]))
    return QuadraticForm(field, tuple(entries))


def trace_form_entries(c, base: FieldDescriptor, a) -> Tuple:
    """Diagonal entries over the base of (u,v) -> Tr_{k(sqrt a)/k}(c*u*v).

    The Gram matrix on the basis {1, sqrt(a)} is
    [[2*c0, 2*c1*a], [2*c1*a, 2*c0*a]] for c = c0 + c1*sqrt(a).
    """
    c0, c1 = c
    two = F.coerce(base, 2)
    g00 = F.mul(base, two, c0)
    g01 = F.mul(base, two, F.mul(base, c1, a))
    g11 = F.mul(base, two, F.mul(base, c0, a))
    return diagonalize([[g00, g01], [g01, g11]], base).entries


# ---------------------------------------------------------------------------
# invariant keys of the keyed fields
#
# The first entry of every key is congruent to the rank mod 2; over Q and R
# it is the signature.


class _Keyed(NamedTuple):
    """Witt-ring arithmetic of one keyed field kind, done on keys."""

    zero: Tuple
    key: Callable  # (field, diagonal entries) -> key of the form
    add: Callable  # (field, key, key) -> key of the sum
    neg: Callable  # (field, key) -> key of the negation
    rep: Callable  # (field, key) -> diagonal representative of the class


def _fp_entries_from_class(cls, p: int) -> Tuple[int, ...]:
    s = F.least_nonresidue(p)
    r2, d = cls
    if cls == places.FP_ZERO:
        return ()
    if r2 == 1:
        return (d,)
    # rank-0 class with non-square signed discriminant: <1, c> with -c a
    # non-square; c = s when -1 is a square (p = 1 mod 4), else c = 1.
    return (1, s) if p % 4 == 1 else (1, 1)


def _fq_key(field: FieldDescriptor, entries) -> Tuple[int, bool]:
    # F_{p^2} and C: -1 is a square, so the signed disc class is the plain
    # product class; (rank mod 2, disc-is-square) classifies.
    d = F.one(field)
    for c in entries:
        d = F.mul(field, d, c)
    return (len(entries) % 2, F.is_square(field, d))


def _fq_rep(field: FieldDescriptor, key) -> Tuple:
    r2, dsq = key
    one = F.one(field)
    if r2 == 1:
        return (one,) if dsq else (F.first_nonsquare(field),)
    return () if dsq else (one, F.first_nonsquare(field))


def _reconstruct_rationals(key) -> Tuple[Fraction, ...]:
    """Deterministic diagonal representative realizing a W(Q) invariant key."""
    sig, items, dy = key
    targets = dict(items)
    work = set(targets)
    out: List[Fraction] = []

    def residue_at(p: int):
        cls = places.FP_ZERO
        for c in out:
            if places.vp(c, p) % 2:
                u = places.unit_part_mod_p(c, p)
                cls = places.fp_add(cls, (1, places.fp_normalize_disc(u, p)), p)
        return cls

    def note_new_entry(c: Fraction, below: int):
        for q, _ in places._factor(abs(places.squarefree_part(c))):
            if q != 2 and q < below and residue_at(q) != targets.get(q, places.FP_ZERO):
                work.add(q)

    while work:
        p = max(work)
        work.remove(p)
        need = places.fp_add(
            targets.get(p, places.FP_ZERO), places.fp_neg(residue_at(p), p), p
        )
        if need == places.FP_ZERO:
            continue
        s = F.least_nonresidue(p)
        r2, d = need
        if r2 == 1:
            new = [Fraction(d * p)]
        else:
            c = s if p % 4 == 1 else 1
            new = [Fraction(p), Fraction(c * p)]
        for e in new:
            out.append(e)
            note_new_entry(e, p)
    if places.wq_key(tuple(out))[2] != dy:
        out.append(Fraction(2))
    t = sig - sum(1 if c > 0 else -1 for c in out)
    out.extend([Fraction(1 if t > 0 else -1)] * abs(t))
    return tuple(out)


_RATIONAL_KEYS = _Keyed(
    places.WQ_ZERO,
    lambda field, entries: places.wq_key(entries),
    lambda field, k1, k2: places.wq_key_add(k1, k2),
    lambda field, k: places.wq_key_neg(k),
    lambda field, k: _reconstruct_rationals(k),
)
_REAL_KEYS = _Keyed(
    (0,),
    lambda field, entries: (sum(1 if c > 0 else -1 for c in entries),),
    lambda field, k1, k2: (k1[0] + k2[0],),
    lambda field, k: (-k[0],),
    lambda field, k: (Fraction(1 if k[0] > 0 else -1),) * abs(k[0]),
)
_FP_KEYS = _Keyed(
    places.FP_ZERO,
    lambda field, entries: places.fp_class_of_units(entries, field.p),
    lambda field, k1, k2: places.fp_add(k1, k2, field.p),
    lambda field, k: places.fp_neg(k, field.p),
    lambda field, k: _fp_entries_from_class(k, field.p),
)
# F_{p^2} and C: every class is its own negative, as -1 is a square
_FQ_KEYS = _Keyed(
    (0, True),
    _fq_key,
    lambda field, k1, k2: ((k1[0] + k2[0]) % 2, k1[1] == k2[1]),
    lambda field, k: k,
    _fq_rep,
)
_KEYED = {RATIONALS: _RATIONAL_KEYS, REALS: _REAL_KEYS, FINITE_PRIME: _FP_KEYS,
          QUAD_EXT: _FQ_KEYS}


def _keyed(field: FieldDescriptor) -> Optional[_Keyed]:
    """Key arithmetic of the field, or None over Q(sqrt a)."""
    if field.kind == QUAD_EXT and field.base.kind == RATIONALS:
        return None
    if field.kind not in _KEYED:
        raise UnsupportedField(str(field))
    return _KEYED[field.kind]


@lru_cache(maxsize=None)
def integer_modulus(field: FieldDescriptor) -> int:
    """N with Z/N the image of Z in W(field): the additive order of <1>, or
    0 when it has none.  It is 2*level(k) for k not formally real, and the
    level of every supported field is 1, 2 or 4 (Lam, ch. XI):

        0  Q, R, Q(sqrt a) with a > 0
        2  F_q with q = 1 mod 4, C, Q(sqrt -1)
        4  F_q with q = 3 mod 4, Q(sqrt -d) with d != 1, d != 7 mod 8
        8  Q(sqrt -d) with d = 7 mod 8
    """
    return next((n for n in (2, 4, 8) if integer_class(n, field).is_zero()), 0)


@lru_cache(maxsize=None)
def _torsion_integer_keys(field: FieldDescriptor) -> Tuple:
    """Keys of 0, <1>, ..., (N - 1)<1> over a field with N = integer_modulus > 0."""
    return tuple(integer_class(t, field).key for t in range(integer_modulus(field)))


# --- Q(sqrt a): reduced representative, equality by decision procedure -----

# entries are normalized into the pool d, -d, d*sqrt(a), -d*sqrt(a) for
# squarefree d up to this height when their square class meets it
_POOL_HEIGHT = 50


def _square_quotient_classes(field: FieldDescriptor, c) -> Tuple[int, ...]:
    """The squarefree s with c/s a square in Q(sqrt a)."""
    return tuple(places.squarefree_part(h) for h in F.rational_square_classes(field, c))


def _normalize_qext_entry(field: FieldDescriptor, c):
    """Representative of the square class of c = u + v*sqrt(a) in Q(sqrt a).

    It is the first of d, -d, d*sqrt(a), -d*sqrt(a) (d squarefree, d <= 50,
    ascending d) in the class of c, found in closed form: c/s is a square
    for rational s exactly when s lies in a class of
    ``fields.rational_square_classes(c)``, and c/(s*sqrt a) =
    (c*sqrt a)/(a*s) is one exactly when a*s lies in a class of those of
    c*sqrt(a) = a*v + u*sqrt(a).  A class that holds none of them is
    represented by c with its rational square factors cleared.
    """
    u, v = c
    a = field.a
    root_classes = (
        places.squarefree_part(t * a)
        for t in _square_quotient_classes(field, (a * v, u))
    )
    # sorted as the pool: by d, then d, -d, d*sqrt(a), -d*sqrt(a)
    found = [(abs(s), False, s < 0, s) for s in _square_quotient_classes(field, c)]
    found += [(abs(s), True, s < 0, s) for s in root_classes]
    found = [f for f in found if f[0] <= _POOL_HEIGHT]
    if found:
        _, on_root, _, s = min(found)
        return (Fraction(0), Fraction(s)) if on_root else (Fraction(s), Fraction(0))
    L = math.lcm(u.denominator, v.denominator)
    # scaling by the square L^2 keeps the square class and clears denominators
    ui = int(u * L * L)
    vi = int(v * L * L)
    k = math.prod(q ** (e // 2) for q, e in places._factor(math.gcd(ui, vi)))
    return (Fraction(ui // (k * k)), Fraction(vi // (k * k)))


def _on_pool(r) -> bool:
    """Whether a normalized entry is a pool element.  An entry off the pool
    with a zero coordinate has its other one squarefree, so above 50."""
    return 0 in r and abs(r[0] + r[1]) <= _POOL_HEIGHT


@lru_cache(maxsize=None)
def _pool_partner(field: FieldDescriptor, r):
    """The pool element in the class of -r, for a pool element r (cached:
    a field has at most 4 pool elements per squarefree d <= 50)."""
    return _normalize_qext_entry(field, F.neg(field, r))


def _negate_qext_entry(field: FieldDescriptor, r):
    """The normalized entry in the class of -r, for a normalized entry r.
    Off the pool that is -r itself: its class holds no pool element (the
    pool is closed under negation) and -r has no rational square factor."""
    return _pool_partner(field, r) if _on_pool(r) else F.neg(field, r)


def _sorted_qext(counts: Dict[Tuple, int]) -> Tuple:
    """The entries of a reduced representative, each repeated its count
    times, in canonical order (rational entries first, then by u, then v)."""
    order = sorted(counts, key=lambda c: (c[1] != 0, c[0], c[1]))
    return tuple(r for r in order for _ in range(counts[r]))


def _cancel_qext(field: FieldDescriptor, entries) -> Tuple:
    """Normalized entries with hyperbolic pairs <c, -c'> (c' in the class of
    c) cancelled, sorted.  Pool entries are canonical for their class and
    the pool is closed under negation, so they cancel by count against their
    partner, the pool element in the class of their negative (mod 2 when
    that is the entry itself, as when -1 is a square), and never against
    entries off the pool.  Each entry off the pool cancels against the first
    later one r' with -r*r' a square."""
    pool = {r: n for r, n in Counter(entries).items() if _on_pool(r)}
    rest = [r for r in entries if r not in pool]
    left = {}
    for r, n in pool.items():
        partner = _pool_partner(field, r)
        left[r] = n % 2 if partner == r else max(n - pool.get(partner, 0), 0)
    alive = [True] * len(rest)
    for i, r in enumerate(rest):
        if not alive[i]:
            continue
        for j in range(i + 1, len(rest)):
            if alive[j] and F.is_square(field, F.neg(field, F.mul(field, r, rest[j]))):
                alive[i] = alive[j] = False
                break
        if alive[i]:
            left[r] = left.get(r, 0) + 1
    return _sorted_qext(left)


def _reduce_qext(field: FieldDescriptor, entries) -> Tuple:
    """The reduced representative of a diagonal form over Q(sqrt a): each
    entry normalized, then hyperbolic pairs cancelled (``_cancel_qext``)."""
    return _cancel_qext(field, [_normalize_qext_entry(field, c) for c in entries])


def _qext_q_is_zero(field: FieldDescriptor, reduced) -> bool:
    """Decide whether a reduced representative is the zero class."""
    if not reduced:
        return True
    if all(v == 0 for _, v in reduced):
        # base change of a rational form: the local-global kernel test decides
        return places.ker_iota_rational(tuple(u for u, _ in reduced), field.a)
    if len(reduced) % 2:
        return False
    if field.a > 0:
        for root in (True, False):
            if sum(F.real_sign(field, c, root) for c in reduced) != 0:
                return False
    # transfer invariants: Tr(x) and Tr(<sqrt a> x) vanish on the zero class
    base = field.base
    tr: List = []
    trs: List = []
    sqrt_a = F.coerce(field, (0, 1))
    for c in reduced:
        tr.extend(trace_form_entries(c, base, field.a))
        trs.extend(trace_form_entries(F.mul(field, sqrt_a, c), base, field.a))
    if not witt_class(QuadraticForm(base, tuple(tr))).is_zero():
        return False
    if not witt_class(QuadraticForm(base, tuple(trs))).is_zero():
        return False
    raise Undecided(
        "cannot certify equality in W(Q(sqrt:%s)) for representative %r"
        % (field.a, reduced)
    )


def _canonicalize(field: FieldDescriptor, entries):
    """Canonical state of the class of a diagonal form: its invariant key
    over a keyed field, its reduced representative over Q(sqrt a)."""
    kind = _keyed(field)
    if kind is None:
        return _reduce_qext(field, entries)
    return kind.key(field, entries)


# ---------------------------------------------------------------------------


class WittClass:
    """Element of W(k); immutable, compares by Witt equivalence.

    Over a keyed field (Q, R, F_p, F_{p^2}, C) the state is ``field`` and
    the invariant ``key``; ``entries``, a diagonal representative, is built
    from the key on first use and cached.  Over Q(sqrt a) ``key`` is None
    and ``entries`` is a reduced diagonal representative.
    """

    __slots__ = ("field", "key", "_entries")

    def __init__(self, field: FieldDescriptor, key, entries=None):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "_entries", entries)

    def __setattr__(self, *_):
        raise AttributeError("WittClass is immutable")

    @property
    def entries(self) -> Tuple:
        if self._entries is None:
            rep = _keyed(self.field).rep(self.field, self.key)
            object.__setattr__(self, "_entries", rep)
        return self._entries

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_entries(field: FieldDescriptor, entries) -> "WittClass":
        state = _canonicalize(field, tuple(entries))
        if _keyed(field) is None:
            return WittClass(field, None, state)
        return WittClass(field, state)

    # -- ring structure ----------------------------------------------------

    def _check(self, other: "WittClass") -> None:
        if not isinstance(other, WittClass):
            raise FieldMismatch(f"expected WittClass, got {other!r}")
        if other.field != self.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def __add__(self, other: "WittClass") -> "WittClass":
        self._check(other)
        kind = _keyed(self.field)
        if kind is None:
            both = self.entries + other.entries
            return WittClass(self.field, None, _cancel_qext(self.field, both))
        return WittClass(self.field, kind.add(self.field, self.key, other.key))

    def __neg__(self) -> "WittClass":
        kind = _keyed(self.field)
        if kind is None:
            counts = Counter(self.entries).items()
            negd = {_negate_qext_entry(self.field, r): n for r, n in counts}
            return WittClass(self.field, None, _sorted_qext(negd))
        return WittClass(self.field, kind.neg(self.field, self.key))

    def __sub__(self, other: "WittClass") -> "WittClass":
        return self + (-other)

    def _int_scale(self, t: int) -> "WittClass":
        """t-fold sum: by doubling on keys; over Q(sqrt a) written down, each
        reduced entry of +-self repeated |t| times, as two copies of one
        entry c cancel only when -c^2 is a square (t is then taken mod 2)."""
        base = -self if t < 0 else self
        t = abs(t)
        if self.key is None:
            if F.is_square(self.field, F.coerce(self.field, -1)):
                t %= 2
            return WittClass(self.field, None, tuple(c for c in base.entries for _ in range(t)))
        acc = zero_class(self.field)
        while t:
            if t & 1:
                acc = acc + base
            t >>= 1
            if t:
                base = base + base
        return acc

    def __mul__(self, other):
        if isinstance(other, int):
            return self._int_scale(other)
        self._check(other)
        for x, y in ((self, other), (other, self)):
            t = _leading_integer(y)
            if t is not None:
                return x._int_scale(t)
        prod = tuple(
            F.mul(self.field, c, d) for c in self.entries for d in other.entries
        )
        return WittClass.from_entries(self.field, prod)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

    def integer_value(self) -> Optional[int]:
        """t with self == t*<1>, or None when there is none; exact over the
        keyed fields (over F_p, F_{p^2} and C, t is taken in
        0..integer_modulus - 1), UnsupportedField over Q(sqrt a)."""
        if self.field.kind == RATIONALS:
            sig, residues, dyadic = self.key
            return None if residues or dyadic else sig
        if self.field.kind == REALS:
            return self.key[0]
        if self.key is None:
            raise UnsupportedField(f"no integer test over {self.field}")
        keys = _torsion_integer_keys(self.field)
        return keys.index(self.key) if self.key in keys else None

    def is_zero(self) -> bool:
        kind = _keyed(self.field)
        if kind is None:
            return _qext_q_is_zero(self.field, self.entries)
        return self.key == kind.zero

    def __eq__(self, other) -> bool:
        if not isinstance(other, WittClass) or other.field != self.field:
            return False
        if self.key is not None:
            return self.key == other.key
        return self.entries == other.entries or (self - other).is_zero()

    def __hash__(self):
        if self.key is not None:
            return hash((self.field, self.key))
        return hash((self.field, len(self.entries) % 2))

    # -- inspection --------------------------------------------------------

    def signature(self, positive_root: bool = True) -> int:
        if self.field.kind in (RATIONALS, REALS):
            return self.key[0]
        if self.field.kind == QUAD_EXT and self.field.base.kind == RATIONALS:
            if self.field.a > 0:
                return sum(F.real_sign(self.field, c, positive_root) for c in self.entries)
        raise UnsupportedField(f"no real embedding data for {self.field}")

    def __repr__(self):
        if not self.entries:
            return "WittClass(0)"
        body = " + ".join(
            f"<{F.scalar_repr(self.field, c)}>" for c in self.entries
        )
        return f"WittClass({body} over {self.field})"


def _leading_integer(d: WittClass) -> Optional[int]:
    """t with d = t<1>, or None.  Over the keyed fields the key decides
    (``integer_value``); over Q(sqrt a) a reduced representative of |t|
    entries, all <1> or all <-1>, is read as t<1>.  That is the form
    ``integer_class`` and products of such classes build, and reading it
    needs no equality decision."""
    if d.key is not None:
        return d.integer_value()
    one = F.one(d.field)
    for sign, u in ((1, one), (-1, F.neg(d.field, one))):
        if all(x == u for x in d.entries):
            return sign * len(d.entries)
    return None


def witt_class(f: QuadraticForm) -> WittClass:
    return WittClass.from_entries(f.field, f.entries)


def witt(field: FieldDescriptor, *entries) -> WittClass:
    """Convenience constructor: witt(Q, 1, -2) = <1> + <-2>."""
    return witt_class(form(field, entries))


def zero_class(field: FieldDescriptor) -> WittClass:
    kind = _keyed(field)
    if kind is None:
        return WittClass(field, None, ())
    return WittClass(field, kind.zero)


def square_class(field: FieldDescriptor, c) -> WittClass:
    return witt(field, c)


def integer_class(n: int, field: FieldDescriptor) -> WittClass:
    """n<1>: the class of <1>, scaled by n."""
    return WittClass.from_entries(field, (F.one(field),))._int_scale(n)
