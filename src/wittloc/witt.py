"""Exact arithmetic in Witt rings W(k) with canonical-form equality.

Supported k: Q, R, F_p (p odd), and one quadratic step k0(sqrt(a)).  A class
is a key of its field kind's ``_Keyed`` record.  Every key is made by
``_canonicalize`` from counted (entry, count) pairs, so a form given as
counted terms (a parsed sum, a trace form, a base change, a product over
Q(sqrt a)) is keyed in one call, whatever its rank.  Sums, negations,
integer multiples and products work on keys, the multiples in closed form
(the signature times t, each W(F_q) part t mod 4 times, each Q(sqrt a)
count times t).  A product multiplies signatures over R, is
``places.wf_mul`` over F_p, F_{p^2} and C, and over Q is
``places.wq_key_mul``, which reads each first residue off the key through
the key's signed discriminant, so it is linear in the residue primes and
factors nothing.  Over Q(sqrt a) it sums the pairwise products of entries.
Printing over Q builds the representative in one sweep over the unmet
residues (``_reconstruct_rationals``).  Base change, printing and the transfers
from F_p(sqrt a) read the counted representative ``terms``, (entry, count)
pairs built from the key on first use, so they cost the number of distinct
entries, not the rank; the transfers from Q(sqrt a) read the key itself.
Over Q, R, F_p, F_{p^2} and C the key is the complete invariant:
signature, second residues and dyadic slot over Q; signature over R; over
F_p, F_{p^2} and C one record of (rank mod 2, signed discriminant is a
square), added, negated, scaled and multiplied by the W(F_q) algebra of
``places``, which also carries the residues of the Q key.  Over Q(sqrt a) it
is sorted (normalized entry, count) pairs: each distinct entry u + v*sqrt(a)
is scaled by a rational square to integral u, v with no common square
factor once, in ``from_entries``, and stored as the int pair (u, v); its
counted representative is the same pairs with ``Fraction`` coordinates.
Sums merge counts and cancel hyperbolic pairs by count (counts mod
``field.modulus``), so t<1> is one entry of count t.  Every Q(sqrt a)
kernel here runs on int coordinates, a = A/B in lowest terms, and scales
only by rational squares, which keep each entry's square class: an entry
enters times L^2 (L the lcm of its denominators), a product of entries is
taken times B^2 (``fields.scaled_product``), <r, s> is hyperbolic when
-r*s is a square (``fields.is_square_integral``, ``_hyperbolic_qext``),
and a trace form is <2u, 2A*u*(B*u^2 - A*v^2)> (``trace_form_entries``).
That key is not a complete invariant: zero and equality are decided
place by place (``places.qext_witt_zero``), and the hash reads Witt
invariants, rank parity, the signatures and the W(Q) keys of the transfers
of x and <sqrt a>x.

Each field has one exact reader of t with x = t<1>, ``integer_value`` (the
key decides, or one zero test per candidate t over Q(sqrt a)), and one of
the signatures at its orderings, ``signatures``, from which ``odd_quotient``
divides by t<1>, t odd.
"""

from __future__ import annotations

import math
from bisect import insort
from fractions import Fraction
from itertools import groupby
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import fields as F
from . import places
from .errors import BadParameters, DegenerateForm, FieldMismatch, NonSymmetric, ZeroInput
from .fields import FINITE_PRIME, QUAD_EXT, RATIONALS, REALS, FieldDescriptor


# ---------------------------------------------------------------------------
# Gram-matrix diagonalization (char != 2 symmetric elimination)


def diagonalize(gram: Sequence[Sequence], field: FieldDescriptor) -> Tuple:
    """The diagonal entries of a form isometric to the symmetric Gram matrix."""
    n = len(gram)
    if any(len(row) != n for row in gram):
        raise NonSymmetric("matrix is not square")
    M = [[F.coerce(field, gram[i][j]) for j in range(n)] for i in range(n)]
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
    return tuple(entries)


def trace_form_entries(c, A, B) -> Tuple:
    """Diagonal entries over the base of (s, t) -> Tr_{k(sqrt a)/k}(c*s*t),
    for a = A/B in lowest terms (B = 1 and A = a over F_p).

    The Gram matrix on the basis {1, sqrt(a)} is [[2u, 2a*v], [2a*v, 2a*u]]
    for c = u + v*sqrt(a).  For u != 0 it diagonalizes to <2u, 2a*N(c)/u>,
    that is <2u, 2a*u*N(c)> up to the square u^2 (N(c) = u^2 - a*v^2 the
    norm), and up to the square B^2 to <2u, 2A*u*(B*u^2 - A*v^2)>, integers
    when u and v are; for u = 0 its diagonal is zero, so it is hyperbolic,
    <1, -1>.
    """
    u, v = c
    if not u:
        return (1, -1)
    return (2 * u, 2 * A * u * (B * u * u - A * v * v))


# ---------------------------------------------------------------------------
# invariant keys of the keyed fields
#
# The first entry of every key is congruent to the rank mod 2; over Q and R
# it is the signature.


class _Keyed(NamedTuple):
    """Witt-ring arithmetic of one keyed field kind, done on keys."""

    zero: Tuple
    key: Callable  # (field, (entry, count) pairs) -> key of the form
    add: Callable  # (field, key, key) -> key of the sum
    neg: Callable  # (field, key) -> key of the negation
    scale: Callable  # (field, key, t) -> key of t times the class, in closed form
    mul: Callable  # (field, key, key) -> key of the product
    # (field, key) -> counted representative: (entry, count) pairs, count
    # >= 1, distinct entries, whose sum of count*<entry> is the class
    rep: Callable


def _finite_key(field: FieldDescriptor, terms) -> Tuple[int, bool]:
    squares = ((F.is_square(field, c), n) for c, n in terms)
    return places.wf_units(squares, field.minus_one_square)


def _finite_rep(field: FieldDescriptor, key) -> Tuple:
    """<1> or <first non-square> in rank 1; a nonzero rank-0 class is <1, s>
    (s the first non-square) when -1 is a square, else 2<1>."""
    r2, square = key
    one = F.one(field)
    if r2 == 1:
        return ((one if square else F.first_nonsquare(field), 1),)
    if square:
        return ()
    return ((one, 1), (F.first_nonsquare(field), 1)) if field.minus_one_square else ((one, 2),)


def _signed_ones(t: int) -> Tuple:
    """The counted representative of t<1> over Q or R: <1> or <-1>, |t| times."""
    return ((Fraction(1 if t > 0 else -1), abs(t)),) if t else ()


def _reconstruct_rationals(key) -> Tuple:
    """Deterministic counted representative realizing a W(Q) invariant key:
    entries that meet the residues, the largest unmet prime p first, then
    <2> for the dyadic slot and +-<1> for the rest of the signature.

    One descending sweep over a mutable map of the unmet residues.  With s
    the least non-residue mod p, a prime below p, p's entries are <p> or
    <s*p> for an odd rank and <p, p> or <p, s*p> for an even one.  Each
    positive, each leaves the residue at p met, and <s*p> changes only one
    other slot: the residue at s by <p mod s>, of rank 1, or the dyadic
    slot when s = 2.  So every prime still unmet is below p."""
    sig, items, dy = key
    unmet = dict(items)
    primes = sorted(unmet)
    out: List[int] = []
    while primes:
        p = primes.pop()
        r2, square = unmet.pop(p)
        if (r2, square) == places.WF_ZERO:
            continue
        s = F.least_nonresidue(p)
        if r2 == 1:
            new = (p,) if square else (s * p,)
        else:
            new = (p, (s if p % 4 == 1 else 1) * p)
        out += new
        sig -= len(new)
        if new[-1] != p:  # the entry s*p is <p mod s> at s
            if s == 2:
                dy ^= 1
            else:
                if s not in unmet:
                    insort(primes, s)
                met = places.wf_neg((1, F._legendre(p % s, s) == 1), s % 4 == 1)
                unmet[s] = places.wf_add(unmet.get(s, places.WF_ZERO), met, s % 4 == 1)
    if dy:
        out.append(2)
        sig -= 1
    # the two entries <p, p> of one prime are the only equal ones
    runs = tuple((Fraction(c), len(list(g))) for c, g in groupby(out))
    return runs + _signed_ones(sig)


_RATIONAL_KEYS = _Keyed(
    places.WQ_ZERO,
    lambda field, terms: places.wq_key(terms),
    lambda field, k1, k2: places.wq_key_add(k1, k2),
    lambda field, k: places.wq_key_neg(k),
    lambda field, k, t: places.wq_key_scale(k, t),
    lambda field, k1, k2: places.wq_key_mul(k1, k2),
    lambda field, k: _reconstruct_rationals(k),
)
_REAL_KEYS = _Keyed(
    (0,),
    lambda field, terms: (sum(n if c > 0 else -n for c, n in terms),),
    lambda field, k1, k2: (k1[0] + k2[0],),
    lambda field, k: (-k[0],),
    lambda field, k, t: (k[0] * t,),
    lambda field, k1, k2: (k1[0] * k2[0],),
    lambda field, k: _signed_ones(k[0]),
)
# F_p, F_{p^2} and C: (rank mod 2, signed discriminant is a square)
_FINITE_KEYS = _Keyed(
    places.WF_ZERO,
    _finite_key,
    lambda field, k1, k2: places.wf_add(k1, k2, field.minus_one_square),
    lambda field, k: places.wf_neg(k, field.minus_one_square),
    lambda field, k, t: places.wf_scale(k, t, field.minus_one_square),
    lambda field, k1, k2: places.wf_mul(k1, k2),
    _finite_rep,
)
_KEYED = {RATIONALS: _RATIONAL_KEYS, REALS: _REAL_KEYS, FINITE_PRIME: _FINITE_KEYS}


def _is_qext_q(field: FieldDescriptor) -> bool:
    # the one field kind whose key is not a complete invariant
    return field.kind == QUAD_EXT and field.base.kind == RATIONALS


def _keyed(field: FieldDescriptor) -> _Keyed:
    keyed = _KEYED.get(field.kind)
    if keyed is None:  # k(sqrt a): F_{p^2} or C keyed as finite, Q(sqrt a) by entries
        return _QEXT_KEYS if field.base.kind == RATIONALS else _FINITE_KEYS
    return keyed


# --- Q(sqrt a): counted reduced form, zero decided place by place --------


def _normalize_qext_entry(c) -> Tuple[int, int]:
    """c = u + v*sqrt(a) in integral coordinates of its square class
    (``fields.integral_coordinates``, scaling by L^2), divided by the
    largest square that divides both: the int pair (u, v)."""
    u, v = F.integral_coordinates(c)
    k = math.prod(q ** (e // 2) for q, e in places._factor(math.gcd(u, v)))
    return (u // (k * k), v // (k * k))


def _hyperbolic_qext(A: int, B: int, r, s) -> bool:
    """Whether <r, s> is hyperbolic, that is -r*s a square in Q(sqrt a), for
    a = A/B in lowest terms and entries r, s of integral coordinates: -r*s
    scaled by B^2 (``fields.scaled_product``) and tested in integers
    (``fields.is_square_integral``)."""
    u, v = F.scaled_product(A, B, r, s)
    return F.is_square_integral(A, B, -u, -v)


def _qext_sorted(pairs) -> Tuple:
    """(entry, count) pairs in canonical order: rational entries first, then
    by u, then v."""
    return tuple(sorted(pairs, key=lambda rn: (rn[0][1] != 0, rn[0][0], rn[0][1])))


def _cancel_qext(field: FieldDescriptor, pairs) -> Tuple:
    """The key of the sum of (normalized entry, count) pairs: hyperbolic
    pairs <r, r'> (``_hyperbolic_qext``) cancelled by count, each entry
    against the later ones, and counts taken mod N = ``field.modulus``
    (N<c> = <c>*N<1> = 0)."""
    A, B = field.a.numerator, field.a.denominator
    counts: Dict = {}
    for r, n in pairs:
        counts[r] = counts.get(r, 0) + n
    work = [[r, n] for r, n in counts.items()]
    for i, rn in enumerate(work):
        for sm in work[i + 1:]:
            if not rn[1]:
                break
            if sm[1] and _hyperbolic_qext(A, B, rn[0], sm[0]):
                m = min(rn[1], sm[1])
                rn[1] -= m
                sm[1] -= m
    N = field.modulus
    kept = ((r, n % N if N else n) for r, n in work)
    return _qext_sorted((r, n) for r, n in kept if n)


def _neg_qext(field: FieldDescriptor, k) -> Tuple:
    return _qext_sorted((F.neg(field, r), n) for r, n in k)


def _scale_qext(field: FieldDescriptor, k, t: int) -> Tuple:
    """t times the key k: -k scaled by |t| for t < 0, each count times |t|
    mod N.  The entries of a key are pairwise not hyperbolic, so nothing
    new cancels and the order holds."""
    if t < 0:
        k, t = _neg_qext(field, k), -t
    N = field.modulus
    scaled = ((r, n * t % N if N else n * t) for r, n in k)
    return tuple((r, n) for r, n in scaled if n)


def _qext_integer(k) -> Optional[int]:
    """t with the key k of one entry <1> or <-1> of count |t|, as
    ``integer_class`` builds, 0 for the empty key, else None; no zero test."""
    if len(k) != 1:
        return None if k else 0
    ((c, n),) = k
    return n if c == (1, 0) else -n if c == (-1, 0) else None


def _mul_qext(field: FieldDescriptor, k1, k2) -> Tuple:
    """The key of the product: the other key scaled when one key reads as
    an integer (``_qext_integer``), else the pairwise products of entries,
    each scaled by the square B^2 into integers (``fields.scaled_product``),
    with their counts multiplied, canonicalized once."""
    for x, y in ((k1, k2), (k2, k1)):
        t = _qext_integer(y)
        if t is not None:
            return _scale_qext(field, x, t)
    A, B = field.a.numerator, field.a.denominator
    return _canonicalize(field, [(F.scaled_product(A, B, c, d), n * m)
                                 for c, n in k1 for d, m in k2])


_QEXT_KEYS = _Keyed(
    (),
    lambda field, terms: _cancel_qext(field, [(_normalize_qext_entry(c), n) for c, n in terms]),
    lambda field, k1, k2: _cancel_qext(field, k1 + k2),
    _neg_qext,
    _scale_qext,
    _mul_qext,
    # the int pairs of the key as field elements, Fraction pairs
    lambda field, k: tuple(((Fraction(u), Fraction(v)), n) for (u, v), n in k),
)


def trace_class(x: WittClass, twist: bool = False) -> WittClass:
    """Tr_{k(sqrt a)/k}(x), or Tr(<sqrt a>*x) when twist, in W(k), for x
    over k(sqrt a): the closed-form trace form of each distinct entry
    (``trace_form_entries``), scaled by its count.  Over Q(sqrt a) the
    entries are the int pairs of the key and <sqrt a> twists them by
    ``fields.scaled_product``, so every trace form is made of integers;
    over F_p(sqrt a) they are reduced mod p."""
    field = x.field
    base, A, B = field.base, field.a.numerator, field.a.denominator
    pairs = x.key if _is_qext_q(field) else x.terms
    if twist:
        sqrt_a = (0, 1)
        pairs = ((F.scaled_product(A, B, sqrt_a, c), n) for c, n in pairs)
    terms = [(e, n) for c, n in pairs for e in trace_form_entries(c, A, B)]
    if base.kind == FINITE_PRIME:
        terms = [(e % base.p, n) for e, n in terms]
    return WittClass(base, _canonicalize(base, terms))


def _canonicalize(field: FieldDescriptor, terms):
    """The key of sum n*<c> over (entry, count) terms, n >= 1, entries in
    the field's representation: every class key is made here, once per
    sum.  A zero entry raises ZeroInput."""
    for c, _ in terms:
        if F.is_zero(field, c):
            raise ZeroInput("diagonal entries must be nonzero")
    return _keyed(field).key(field, terms)


# ---------------------------------------------------------------------------


class WittClass:
    """Element of W(k); immutable, compares by Witt equivalence.  The state
    is ``field`` and ``key`` (see the module docstring); ``terms``, the
    counted representative, is built from the key on first use and kept in
    the ``_terms`` slot, unset until then."""

    __slots__ = ("field", "key", "_terms")

    def __init__(self, field: FieldDescriptor, key):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "key", key)

    def __setattr__(self, *_):
        raise AttributeError("WittClass is immutable")

    def __reduce__(self):
        # the state is (field, key); ``terms`` is rebuilt on first use
        return WittClass, (self.field, self.key)

    @property
    def terms(self) -> Tuple:
        """(entry, count) pairs, count >= 1: the class is the sum of the
        count*<entry>."""
        try:
            return self._terms
        except AttributeError:
            rep = _keyed(self.field).rep(self.field, self.key)
            object.__setattr__(self, "_terms", rep)
            return rep

    @property
    def entries(self) -> Tuple:
        """The diagonal representative: each entry of ``terms`` repeated its
        count."""
        return tuple(c for c, n in self.terms for _ in range(n))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_entries(field: FieldDescriptor, entries) -> "WittClass":
        """The class of the diagonal form <entries>, entries in the field's
        representation; a zero entry raises ZeroInput."""
        return WittClass(field, _canonicalize(field, [(c, 1) for c in entries]))

    # -- ring structure ----------------------------------------------------

    def _check(self, other: "WittClass") -> None:
        if not isinstance(other, WittClass):
            raise FieldMismatch(f"expected WittClass, got {other!r}")
        if other.field != self.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def __add__(self, other: "WittClass") -> "WittClass":
        self._check(other)
        return WittClass(self.field, _keyed(self.field).add(self.field, self.key, other.key))

    def __neg__(self) -> "WittClass":
        return WittClass(self.field, _keyed(self.field).neg(self.field, self.key))

    def __sub__(self, other: "WittClass") -> "WittClass":
        return self + (-other)

    def _int_scale(self, t: int) -> "WittClass":
        """The t-fold sum, read off the key in closed form (over Q(sqrt a)
        the counts scale, so t<1> is one entry of count t, mod
        ``field.modulus``)."""
        return WittClass(self.field, _keyed(self.field).scale(self.field, self.key, t))

    def __mul__(self, other):
        if isinstance(other, int):
            return self._int_scale(other)
        self._check(other)
        return WittClass(self.field, _keyed(self.field).mul(self.field, self.key, other.key))

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

    def integer_value(self) -> Optional[int]:
        """t with self == t*<1>, or None when there is none, exact over every
        supported field, t taken in 0..N - 1 when N = ``field.modulus`` > 0.
        The key decides over Q and R and, over Q(sqrt a), when it is one entry
        <1> or <-1>; else ``==`` tests each t<1>, t < N, when N > 0 (one
        ``places.qext_witt_zero`` test over Q(sqrt a), failed at once by a
        rank of the other parity) and the common signature when a > 0."""
        field, key = self.field, self.key
        if field.kind == RATIONALS:
            sig, residues, dyadic = key
            return None if residues or dyadic else sig
        if field.kind == REALS:
            return key[0]
        N = field.modulus
        t = _qext_integer(key) if _is_qext_q(field) else None
        if t is not None:
            return t % N if N else t
        if N:
            one = integer_class(1, field)
            return next((t for t in range(N) if self == t * one), None)
        sp, sm = self.signatures()  # Q(sqrt a) with a > 0
        return sp if sp == sm and self == integer_class(sp, field) else None

    def odd_quotient(self, t: int) -> Optional["WittClass"]:
        """The q with t*q = self, or None; BadParameters unless
        ``check_odd_divisor`` admits t.

        z has signature sig/t at every ordering of k (``signatures``; z = 0
        when k has none), so self - t*z is torsion (Pfister) and 8 kills it
        over every supported k; r = t mod 8 in {+-1, +-3} has t*r = 1 mod 8,
        so t*(z + r*(self - t*z)) = self.  Over R, self - t*z is 0, so the
        quotient is z for an even t too.  Two quotients differ by torsion
        that t kills, so q is the only one.  No equality is tested."""
        check_odd_divisor(t, self.field, t)
        sigs = self.signatures()
        if any(s % t for s in sigs):
            return None
        q = [s // t for s in sigs]  # the signatures of z
        # <1> has signature 1 at every ordering, <sqrt a> 1 and then -1
        z = integer_class(sum(q) // max(len(q), 1), self.field)
        if len(q) == 2:
            z = z + (q[0] - q[1]) // 2 * sqrt_a_class(self.field)
        r = (t + 3) % 8 - 3
        return z + r * (self - t * z)

    def is_zero(self) -> bool:
        if _is_qext_q(self.field):
            return places.qext_witt_zero(self.field, self.key)
        return self.key == _keyed(self.field).zero

    def __eq__(self, other) -> bool:
        if not isinstance(other, WittClass) or other.field != self.field:
            return False
        return self.key == other.key or _is_qext_q(self.field) and (self - other).is_zero()

    def __hash__(self):
        if _is_qext_q(self.field):
            # Witt invariants: rank parity, the signatures, and the W(Q) keys
            # of the transfers of x and of <sqrt a>x
            return hash((self.field, sum(n for _, n in self.key) % 2, self.signatures(),
                         trace_class(self).key, trace_class(self, twist=True).key))
        return hash((self.field, self.key))

    # -- inspection --------------------------------------------------------

    def signatures(self) -> Tuple[int, ...]:
        """The signature at each ordering of k: one over Q and R, two over
        Q(sqrt a) with a > 0 (``places.qext_signatures``: sqrt(a) positive,
        then negative), none over the other fields."""
        if self.field.kind in (RATIONALS, REALS):
            return (self.key[0],)
        return tuple(places.qext_signatures(self.field, self.key)) if _is_qext_q(self.field) else ()

    def __str__(self):
        """``<c>`` for a term of count 1, ``n*<c>`` otherwise, which
        ``exprs.parse_witt_expr`` reads back."""
        if not self.terms:
            return "0"
        return " + ".join(f"{'' if n == 1 else f'{n}*'}<{F.scalar_repr(self.field, c)}>"
                          for c, n in self.terms)

    def __repr__(self):
        return f"WittClass({self} over {self.field})" if self.terms else "WittClass(0)"


def witt(field: FieldDescriptor, *entries) -> WittClass:
    """Convenience constructor: witt(Q, 1, -2) = <1> + <-2>, the entries
    coerced into the field (a zero one raises ZeroInput)."""
    return WittClass(field, _canonicalize(field, [(F.coerce(field, c), 1) for c in entries]))


def zero_class(field: FieldDescriptor) -> WittClass:
    return WittClass(field, _keyed(field).zero)


def square_class(field: FieldDescriptor, c) -> WittClass:
    return WittClass(field, _canonicalize(field, ((F.coerce(field, c), 1),)))


def sqrt_a_class(field: FieldDescriptor) -> WittClass:
    """<sqrt a> over the extension field k(sqrt a)."""
    return WittClass.from_entries(field, (F.coerce(field, (0, 1)),))


def integer_class(n: int, field: FieldDescriptor) -> WittClass:
    """n<1>: the class of <1>, scaled by n."""
    return WittClass.from_entries(field, (F.one(field),))._int_scale(n)


def check_odd_divisor(t: Optional[int], field: FieldDescriptor, divisor) -> None:
    """BadParameters unless t is an int that is odd, or nonzero over R.
    Only then does t<1> divide with one quotient, in W(k) and in its image
    Z/N: W(R) = Z, but every other supported W(k) has 2-torsion (over Q,
    2(<1> - <2>) = 0, as <1, 1> = <2, 2>), so an even t leaves the quotient
    unique only up to it.  ``divisor`` is what the message names."""
    if t is None or t == 0 or t % 2 == 0 and field.kind != REALS:
        raise BadParameters(f"cannot divide by {divisor!r}: a quotient is unique and "
                            "certified only for t<1> with t odd (t != 0 over R)")
