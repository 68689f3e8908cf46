"""Square-class bookkeeping for W(Q): residue invariants and local tests.

One W(F_q) class algebra (``wf_units``, ``wf_add``, ``wf_neg``,
``wf_scale``, ``wf_mul``) on (rank mod 2, signed discriminant is a square)
pairs serves the keys of F_p, F_{p^2} and C, the second residues in W(Q)
keys, and Springer's theorem at every odd place.  W(Q) equality is decided
through the split residue decomposition (signature, second residues at odd
primes valued in W(F_p), and a dyadic parity slot).  W(Q) keys are added,
negated, scaled and multiplied in closed form.  ``wq_key`` keys counted
(entry, count) pairs, so a sum of many terms is keyed once, reading the
primes and exponents of each entry off ``_factor``.  A product reads each
first residue off the key through the key's signed discriminant, one
integer made once per key, so it costs the residue primes of the two keys,
not their product, and factors nothing.  This module also carries the
local machinery (Witt-triviality over Q_v: the signature at the real place,
Springer at odd primes, Hilbert symbols and Hasse invariants only at 2).
Zero in W(Q(sqrt a)) is decided place by place with it
(``qext_witt_zero``), and so is whether a W(Q) class dies after the base
change to Q(sqrt a).  That test runs in integers: the entries are the int
pairs of a ``WittClass`` key, and the discriminant, the Z[sqrt d]
coordinates (``z_sqrt_d``), the norms and the split-place images are ints,
each got by scaling with a rational square, which keeps every square class;
``vp``, ``unit_part_mod_p`` and ``local_witt_zero`` take ints as well as
Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import count
from typing import Dict, List, Tuple

from . import fields as F
from .fields import least_nonresidue, _legendre, _SMALL_PRIMES

INF = "inf"


def _rho(n: int) -> int:
    """A proper divisor of the composite n, which has no prime factor below 1000.

    Pollard's rho with Brent's cycle search and batched gcds (Brent, BIT 20
    (1980)), iterating x -> x^2 + c from 2 for c = 1, 2, ... until a c
    splits n.
    """
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # the batch overshot: step it again one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


@lru_cache(maxsize=None)
def _factor(n: int) -> Tuple[Tuple[int, int], ...]:
    """Prime factorization of n >= 1 as sorted (p, e) pairs.

    Trial division by the primes below 1000, then ``_rho`` on what is left.
    Every cofactor is tested with ``fields.is_prime``, so the answer is exact;
    the rho constants affect only the time.
    """
    if n < 1:
        raise ValueError(f"need a positive integer, got {n}")
    exps: Dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            exps[p] = exps.get(p, 0) + 1
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if F.is_prime(m):
            exps[m] = exps.get(m, 0) + 1
        else:
            d = _rho(m)
            pending += (d, m // d)
    return tuple(sorted(exps.items()))


def _odd_primes(n: int) -> Tuple[int, ...]:
    """The primes at which the nonzero integer n has odd valuation.  Those
    of a rational are those of its numerator and of its denominator, which
    are coprime, so each is factored apart, never their longer product."""
    return tuple(p for p, e in _factor(abs(n)) if e % 2)


def squarefree_part(q: Fraction) -> int:
    """Squarefree integer in the square class of a nonzero rational."""
    return (-1 if q < 0 else 1) * math.prod(_odd_primes(q.numerator) + _odd_primes(q.denominator))


def vp(q: Fraction, p: int) -> int:
    v = 0
    n = q.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def unit_part_mod_p(q: Fraction, p: int) -> int:
    """(q / p^{v_p(q)}) mod p as a residue in 1..p-1."""
    v = vp(q, p)
    num, den = q.numerator, q.denominator
    if v > 0:
        num //= p ** v
    elif v < 0:
        den //= p ** (-v)
    return num * pow(den, -1, p) % p


# ---------------------------------------------------------------------------
# W(F_q) class arithmetic.  A class is (rank mod 2, whether the signed
# discriminant (-1)^(n(n-1)/2) det is a square), zero (0, True).  Forms of
# ranks n1, n2 sum to signed discriminant (-1)^(n1 n2) d1 d2, and -x has
# (-1)^n d(x): the square bit flips only for odd ranks when -1 is not a
# square in F_q.  Over F_{p^2} a unit is a square iff its norm is one in F_p.

WF_ZERO = (0, True)


def wf_units(terms, minus_one_square: bool) -> Tuple[int, bool]:
    """The W(F_q) class of sum n*<u> over (u is a square, n) pairs."""
    rank = nonsquares = 0
    for square, n in terms:
        rank += n
        if not square:
            nonsquares += n
    flip = rank * (rank - 1) // 2 % 2 == 1 and not minus_one_square
    return (rank % 2, (nonsquares % 2 == 0) != flip)


def wf_add(c1, c2, minus_one_square: bool) -> Tuple[int, bool]:
    (r1, s1), (r2, s2) = c1, c2
    return ((r1 + r2) % 2, (s1 == s2) != (r1 == r2 == 1 and not minus_one_square))


def wf_neg(c, minus_one_square: bool) -> Tuple[int, bool]:
    r, s = c
    return (r, s != (r == 1 and not minus_one_square))


def wf_scale(c, t: int, minus_one_square: bool) -> Tuple[int, bool]:
    """t*c: 4 kills W(F_q), so t mod 4 additions (t < 0 too)."""
    out = WF_ZERO
    for _ in range(t % 4):
        out = wf_add(out, c, minus_one_square)
    return out


def wf_mul(c1, c2) -> Tuple[int, bool]:
    """c1*c2.  Write b for 'the signed discriminant is not a square'.  When
    -1 is a square, W(F_q) is the group ring F_2[F_q*/F_q*^2], a<1> + b<s>
    with rank a + b; when it is not, W(F_q) is Z/4 with t<1> keyed (t mod 2,
    t mod 4 < 2), so t = r + 2b.  Both rings give rank r1*r2 and b = r1*b2 +
    r2*b1 mod 2, so the rule needs no minus_one_square."""
    (r1, s1), (r2, s2) = c1, c2
    return (r1 * r2, (r1 == 1 and not s2) == (r2 == 1 and not s1))


# ---------------------------------------------------------------------------
# W(Q) invariant bundle


def wq_key(terms):
    """(signature, sorted nonzero second residues at odd primes, dyadic
    parity) of sum n*<c> over (entry, count) terms, an entry a nonzero
    Fraction or int and n >= 1.  The primes and their exponents e come from
    ``_factor`` of the numerator and of the denominator.  At an odd prime q
    of odd e, say in the numerator, the second residue of <c> is the unit
    part sign(c)*(|num|/q^e)/den mod q, whose Legendre symbol is that of
    sign(c)*(|num|/q^e)*den, as the symbol is multiplicative; it is taken
    of the residue mod q.  An odd e at 2 flips the dyadic parity n times."""
    sig = dy = 0
    residues: Dict[int, List[Tuple[bool, int]]] = {}
    for c, n in terms:
        num, den = c.numerator, c.denominator
        sign = 1 if num > 0 else -1
        sig += sign * n
        top = sign * num
        for part, other in ((top, den), (den, top)) if den != 1 else ((top, 1),):
            for q, e in _factor(part):
                if not e % 2:
                    continue
                if q == 2:
                    dy ^= n & 1
                    continue
                u = sign * (part // q ** e) * other % q
                residues.setdefault(q, []).append((_legendre(u, q) == 1, n))
    classes = ((q, wf_units(units, q % 4 == 1)) for q, units in residues.items())
    items = tuple(sorted((q, c) for q, c in classes if c != WF_ZERO))
    return (sig, items, dy)


def wq_key_add(k1, k2):
    sig = k1[0] + k2[0]
    dy = k1[2] ^ k2[2]
    residues = dict(k1[1])
    for q, c in k2[1]:
        residues[q] = wf_add(residues.get(q, WF_ZERO), c, q % 4 == 1)
    items = tuple(sorted((q, c) for q, c in residues.items() if c != WF_ZERO))
    return (sig, items, dy)


def wq_key_neg(k):
    return (-k[0], tuple((q, wf_neg(c, q % 4 == 1)) for q, c in k[1]), k[2])


def wq_key_mul(k1, k2):
    """The key of the product of the classes of k1 and k2, from the keys:
    the signatures multiply; the dyadic parity, the rank parity of the
    residue at 2, is d1*sig2 + sig1*d2 mod 2; and since W(Q_p) = W(F_p) +
    W(F_p)*<p> with <p>^2 = 1, the residue at each odd p is s_p(x)*d_p(y) +
    d_p(x)*s_p(y) (``wf_mul``; Lam, ch. VI).  Nothing is factored.

    The first residue s_p, in W(F_p), is read off the key.  Over Q_p a
    class is s + <p>*d with s, d unimodular; s_p = s mod p and d mod p is
    the second residue.  With a, b the rank parities of s and d (a =
    signature - b mod 2), the signed discriminants satisfy D = (-1)^(ab)
    p^b d+-(s) d+-(d) up to squares.  D is the integer (-1)^(sig(sig-1)/2)
    2^dyadic times the primes whose residue has odd rank, made once per
    key, so its unit part at p is D mod p, or (D/p) mod p when b = 1, and
    times (-1)^(ab) and d+-(d) it gives d+-(s).  A product costs the number
    of residue primes of the two keys, not their product."""
    residues: Dict[int, Tuple[int, bool]] = {}
    for (_, res, _), (sig, other, dy) in ((k1, k2), (k2, k1)):
        if not res:
            continue
        D = (-1) ** (sig * (sig - 1) // 2 % 2) << dy
        for q, (r2, _) in other:
            if r2:
                D *= q
        other = dict(other)
        for p, d in res:
            b, square = other.get(p, WF_ZERO)
            a = (sig - b) % 2
            u = (D // p if b else D) * (-1 if a & b else 1) % p
            c = wf_mul(d, (a, (_legendre(u, p) == 1) == square))
            residues[p] = wf_add(residues.get(p, WF_ZERO), c, p % 4 == 1)
    items = tuple(sorted((q, c) for q, c in residues.items() if c != WF_ZERO))
    (sig1, _, dy1), (sig2, _, dy2) = k1, k2
    return (sig1 * sig2, items, (dy1 * sig2 + sig1 * dy2) % 2)


def wq_key_scale(k, t: int):
    """t times the class of k: the signature times t, each residue scaled
    in W(F_p) (``wf_scale``), the dyadic parity kept for odd t."""
    residues = ((q, wf_scale(c, t, q % 4 == 1)) for q, c in k[1])
    return (k[0] * t, tuple((q, c) for q, c in residues if c != WF_ZERO), k[2] & t)


WQ_ZERO = (0, (), 0)


def wq_kernel_preimage(key, a: Fraction):
    """A key y with <1, -a>*y = key under ``wq_key_mul``, or None exactly
    when the class of key is not in <1, -a>W(Q).  The product rule is solved
    coordinate by coordinate, with at most one auxiliary prime q where
    (a0/q) = 1, as README ("The kernel of base change") derives."""
    sig, residues, dy = key
    res, a0 = dict(residues), squarefree_part(a)
    P = [p for p in _odd_primes(abs(a0)) if p != 2]
    odd = [p for p, _ in residues if a0 % p]  # y has odd rank at these primes
    if (sig if a0 > 0 else sig % 2) or a0 % 2 and dy \
            or any(res[p][0] or _legendre(a0, p) == 1 for p in odd):
        return None
    parities = [res.get(p, WF_ZERO)[0] for p in P] + [sig // 2 % 2] * (a0 < 0) + [dy] * (not a0 % 2)
    if len(set(parities)) > 1:  # each must be sigma(y) mod 2
        return None
    s = max(parities, default=0)

    def bits(q: int) -> int:  # bit i: q is not a square mod P[i]
        return sum(1 << i for i, p in enumerate(P) if _legendre(q, p) != 1)

    diag = sum(1 << i for i, p in enumerate(P) if _legendre(-a0 // p, p) != 1)
    # unknowns: the rank parity of y at each p in P, its dyadic slot, and
    # whether sigma(y) is 2 or 3 mod 4 (known when a0 < 0)
    cols = [bits(p) & ~(1 << i) | diag & 1 << i for i, p in enumerate(P)]
    cols += [bits(2)] + [bits(-1)] * (a0 > 0)
    rhs = sum(1 << i for i, p in enumerate(P) if not res.get(p, WF_ZERO)[1]) ^ (diag if s else 0)
    rhs ^= bits(-1) if a0 < 0 and sig // 2 % 4 >= 2 else 0
    for q in odd:
        rhs ^= bits(q)
    basis = {}  # top bit -> (vector, the unknowns whose columns sum to it)

    def reduce(v: int, m: int = 0):
        while v.bit_length() in basis:
            w, n = basis[v.bit_length()]
            v, m = v ^ w, m ^ n
        return v, m

    for j, c in enumerate(cols):
        v, m = reduce(c, 1 << j)
        if v:
            basis[v.bit_length()] = v, m
    left, m = reduce(rhs)
    if left:  # the split primes realize every vector, or the even ones if a0 = 1 mod 4
        if a0 % 4 == 1 and left.bit_count() % 2 and not any(c.bit_count() % 2 for c in cols):
            return None
        split = (q for q in count(3, 2) if a0 % q and F.is_prime(q) and _legendre(a0, q) == 1)
        q = next(q for q in split if not reduce(rhs ^ bits(q))[0])  # ends, by Dirichlet
        m = reduce(rhs ^ bits(q))[1]
        odd.append(q)
    odd += [p for j, p in enumerate(P) if m >> j & 1]
    sig_y = sig // 2 if a0 < 0 else s + 2 * (m >> len(P) + 1 & 1)
    return (sig_y, tuple(sorted((p, (1, True)) for p in odd)), m >> len(P) & 1)


# ---------------------------------------------------------------------------
# Hilbert symbols and local Witt-class tests over Q_v


def _two_adic_unit(q: Fraction) -> int:
    v = vp(q, 2)
    num, den = q.numerator, q.denominator
    if v > 0:
        num //= 2 ** v
    elif v < 0:
        den //= 2 ** (-v)
    return num * pow(den, -1, 8) % 8


def hilbert(a: Fraction, b: Fraction, v) -> int:
    """Hilbert symbol (a,b)_v in {1,-1}; v is an odd prime, 2, or 'inf'."""
    if a == 0 or b == 0:
        raise ZeroDivisionError("Hilbert symbol needs nonzero arguments")
    if v == INF:
        return -1 if (a < 0 and b < 0) else 1
    if v == 2:
        alpha, beta = vp(a, 2) % 2, vp(b, 2) % 2
        u, w = _two_adic_unit(a), _two_adic_unit(b)
        eps_u, eps_w = (u - 1) // 2 % 2, (w - 1) // 2 % 2
        om_u, om_w = (u * u - 1) // 8 % 2, (w * w - 1) // 8 % 2
        e = eps_u * eps_w + alpha * om_w + beta * om_u
        return -1 if e % 2 else 1
    p = v
    alpha, beta = vp(a, p) % 2, vp(b, p) % 2
    u, w = unit_part_mod_p(a, p), unit_part_mod_p(b, p)
    r = 1
    if alpha and beta:
        r *= _legendre(-1, p)
    if beta:
        r *= _legendre(u, p)
    if alpha:
        r *= _legendre(w, p)
    return r


def is_square_qv(q: Fraction, v) -> bool:
    if v == INF:
        return q > 0
    if v == 2:
        return vp(q, 2) % 2 == 0 and _two_adic_unit(q) == 1
    return vp(q, v) % 2 == 0 and _legendre(unit_part_mod_p(q, v), v) == 1


def _local_class(q: Fraction, v) -> Fraction:
    """A small rational in the Q_v square class of q: its sign at v = inf,
    else p^(v_p(q) mod 2) times its unit part mod p (mod 8 at p = 2)."""
    if v == INF:
        return Fraction(1 if q > 0 else -1)
    unit = _two_adic_unit(q) if v == 2 else unit_part_mod_p(q, v)
    return Fraction(v ** (vp(q, v) % 2) * unit)


def hasse_invariant(entries: Tuple[Fraction, ...], v) -> int:
    """prod_{i<j} (a_i, a_j)_v, taken as prod_j (a_1...a_{j-1}, a_j)_v by
    bilinearity, with the running product kept as a small rational of its
    Q_v square class, so that nothing is factored."""
    h = 1
    d = Fraction(1)
    for c in entries:
        h *= hilbert(d, c, v)
        d = _local_class(d * c, v)
    return h


def signed_disc(terms) -> Fraction:
    """(-1)^(n(n-1)/2) times the determinant of the rank-n form sum m*<c>
    over (entry, count) terms; only the parity of each count enters."""
    n = sum(m for _, m in terms)
    d = Fraction((-1) ** (n * (n - 1) // 2 % 2))
    for c, m in terms:
        if m % 2:
            d *= c
    return d


def _residue_forms_zero(residues, p: int, minus_one: int) -> bool:
    """Springer: both residue forms of (valuation, unit residue, count)
    triples are 0.  Over F_p pass minus_one = -1; over F_{p^2} pass the
    residues' norms and minus_one = 1 (-1 is a square there, and z is one
    iff N(z) is in F_p)."""
    m1 = _legendre(minus_one, p) == 1
    for parity in (0, 1):
        units = ((_legendre(w, p) == 1, n) for e, w, n in residues if e % 2 == parity)
        if wf_units(units, m1) != WF_ZERO:
            return False
    return True


def local_witt_zero(terms, v) -> bool:
    """Whether sum n*<c> over (entry, count) terms is Witt-trivial over Q_v:
    the signature at v = inf; at an odd prime, Springer's theorem on the two
    residue forms; at 2, as 8<1> = 0 in W(Q_2), the form with counts taken
    mod 8 has even rank, square signed discriminant and the Hasse invariant
    of a hyperbolic form."""
    if sum(n for _, n in terms) % 2:
        return False
    if v == INF:
        return sum(n if c > 0 else -n for c, n in terms) == 0
    if v != 2:
        residues = [(vp(c, v), unit_part_mod_p(c, v), n) for c, n in terms]
        return _residue_forms_zero(residues, v, -1)
    terms = tuple((c, n % 8) for c, n in terms)
    if not is_square_qv(signed_disc(terms), 2):
        return False
    entries = tuple(c for c, n in terms for _ in range(n))
    hyp = tuple([Fraction(1), Fraction(-1)] * (len(entries) // 2))
    return hasse_invariant(entries, 2) == hasse_invariant(hyp, 2)


# ---------------------------------------------------------------------------
# W(Q(sqrt a)): zero decided place by place


def sqrt_mod_prime_power(d: int, p: int, k: int) -> int:
    """A root of s^2 = d mod p^k, for d a unit square mod the odd prime p
    (Tonelli-Shanks, then Newton's iteration), or d = 1 mod 8 when p = 2
    (a root s mod 2^j, j >= 3, makes s or s + 2^(j-1) one mod 2^(j+1))."""
    M = p ** k
    if p == 2:
        s = 1
        for j in range(3, k):
            if (s * s - d) % (2 << j):
                s += 1 << (j - 1)
        return s % M
    q, m = p - 1, 0
    while q % 2 == 0:
        q, m = q // 2, m + 1
    c, t, s = pow(least_nonresidue(p), q, p), pow(d, q, p), pow(d, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, s = i, b * b % p, t * b * b % p, s * b % p
    while (s * s - d) % M:
        s = (s - (s * s - d) * pow(2 * s, -1, M)) % M
    return s


def qext_signatures(field, terms):
    """The signatures of sum n*<c> over (entry, count) terms of Q(sqrt a),
    sqrt(a) sent to +sqrt(a) and then -sqrt(a), one at a time; none if a < 0."""
    if field.a > 0:
        for root in (True, False):
            yield sum(n * F.real_sign(field, c, root) for c, n in terms)


def z_sqrt_d(u: int, v: int, fn: int, fd: int) -> Tuple[int, int]:
    """u + v*sqrt(a) = u + v*f*sqrt(d), for integers u, v and f = fn/fd in
    lowest terms, scaled by the square L^2, L = fd/gcd(v, fd) the
    denominator of v*f, into x + y*sqrt(d) in Z[sqrt d]: x = u*L^2 and
    y = v*f*L^2 = (v/g)*fn*L."""
    g = math.gcd(v, fd)
    L = fd // g
    return u * L * L, v // g * fn * L


def qext_witt_zero(field, terms) -> bool:
    """Whether x = sum n*<c> over (entry, count) terms, the entries int
    pairs as in a ``WittClass`` key, is 0 in W(K), K = Q(sqrt a), a = d f^2
    with d squarefree (Lam, ch. VI).  Everything below is done in integers:
    the discriminant through ``fields.scaled_product``, the norms and the
    images at split places.

    Even rank and a square signed discriminant put x in I^2 K.  If x dies
    at every finite place but one dyadic place, Hilbert reciprocity kills
    its Clifford invariant there too, so x lies in I^3 K, which is
    torsion-free and seen by the real signatures.  With entries scaled by
    rational squares into Z[sqrt d] (``z_sqrt_d``), x dies at every odd
    place that divides no norm (it is unimodular of square discriminant
    there).  A split place is Q_p through a root s of d mod p^k, k past
    every norm's valuation by 3, and ``local_witt_zero`` decides; Springer's
    theorem decides every odd place, split, inert (uniformizer p) or
    ramified (uniformizer sqrt d).  When 2 splits (d = 1 mod 8), one dyadic
    place is tested the split way.
    """
    if not terms:
        return True
    rank = sum(n for _, n in terms)
    if rank % 2:
        return False
    if any(qext_signatures(field, terms)):  # stops at the first nonzero one
        return False
    A, B = field.a.numerator, field.a.denominator
    disc = ((-1) ** (rank // 2 % 2), 0)
    for c, n in terms:
        if n % 2:
            disc = F.scaled_product(A, B, disc, c)
    if not F.is_square_integral(A, B, *disc):
        return False
    d = squarefree_part(field.a)
    f = F._fraction_square_root(field.a / d)
    ints = []  # (x, y, norm, count) for x + y*sqrt(d) in Z[sqrt d]
    for (u, v), n in terms:
        x, y = z_sqrt_d(u, v, f.numerator, f.denominator)
        ints.append((x, y, x * x - d * y * y, n))
    primes = {q for _, _, N, _ in ints for q, _ in _factor(abs(N)) if q != 2}
    for p in sorted(primes) + ([2] if d % 8 == 1 else []):
        if d % p == 0:
            residues = []
            for x, y, N, n in ints:
                e = vp(N, p)  # the valuation at the place over p
                # the unit part of (y if e is odd else x) / d^(e//2), p || d
                w = unit_part_mod_p(y if e % 2 else x, p) * pow(d // p, -(e // 2), p) % p
                residues.append((e, w, n))
            if not _residue_forms_zero(residues, p, -1):
                return False
        elif p == 2 or _legendre(d, p) == 1:
            k = max(vp(N, p) for _, _, N, _ in ints) + 3
            M = p ** k
            s = sqrt_mod_prime_power(d, p, k)
            for r in (s,) if p == 2 else (s, -s):
                images = [((x + y * r) % M, n) for x, y, _, n in ints]
                if not local_witt_zero(images, p):
                    return False
        elif not _residue_forms_zero(
                [(vp(N, p) // 2, unit_part_mod_p(N, p), n) for _, _, N, n in ints], p, 1):
            return False
    return True
