"""Independent Witt-class invariants used to check wittloc's answers.

Nothing here imports wittloc.  Each function maps a diagonal form, given by
its entries, to a complete invariant of its Witt class, derived from the
classical structure theorems rather than from the library's code:

* W(R): the signature.
* W(F_p), p odd: rank parity and the Legendre symbol of the signed
  discriminant (-1)^(n(n-1)/2) * det.
* W(F_{p^2}): rank parity and whether the discriminant is a square, which
  holds exactly when its norm to F_p is a square mod p.
* W(Q): Milnor's split exact sequence
  0 -> W(Z) = Z -> W(Q) -> (+)_p W(F_p) -> 0 gives the key (signature,
  second residues at the odd primes, residue at 2 in W(F_2) = Z/2).

Rational entries are handled through their squarefree parts, represented as
``(sign, frozenset of primes)``; products are then sign products and
symmetric differences, so formal products never need big factorizations.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Tuple

SqClass = Tuple[int, FrozenSet[int]]


# ---------------------------------------------------------------------------
# integer factorization (deterministic Miller-Rabin, Pollard-Brent rho)

_SMALL_PRIMES = [p for p in range(2, 200) if all(p % q for q in range(2, int(p ** 0.5) + 1))]
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:  # deterministic below 3.3e24
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    rng = random.Random(n)
    while True:
        y, c, m = rng.randrange(1, n), rng.randrange(1, n), 64
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def prime_factors(n: int) -> Dict[int, int]:
    """Prime factorization of a positive integer."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: Dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _rho(m)
            stack += [d, m // d]
    return out


_SQF_CACHE: Dict[int, FrozenSet[int]] = {}


def _odd_exponent_primes(n: int) -> FrozenSet[int]:
    got = _SQF_CACHE.get(n)
    if got is None:
        got = frozenset(p for p, e in prime_factors(n).items() if e % 2)
        _SQF_CACHE[n] = got
    return got


def sq_class(q) -> SqClass:
    """Square class of a nonzero rational as (sign, primes of odd exponent)."""
    q = Fraction(q)
    if q == 0:
        raise ZeroDivisionError("square class of zero")
    sign = 1 if q > 0 else -1
    return sign, _odd_exponent_primes(abs(q.numerator)) ^ _odd_exponent_primes(q.denominator)


def sq_mul(x: SqClass, y: SqClass) -> SqClass:
    return x[0] * y[0], x[1] ^ y[1]


def sq_neg(x: SqClass) -> SqClass:
    return -x[0], x[1]


# ---------------------------------------------------------------------------
# finite fields


def legendre(u: int, p: int) -> int:
    u %= p
    if u == 0:
        raise ZeroDivisionError("Legendre symbol of a multiple of p")
    return 1 if pow(u, (p - 1) // 2, p) == 1 else -1


def _fp_class_of_units(units: Iterable[int], p: int) -> Tuple[int, int]:
    n, det = 0, 1
    for u in units:
        n += 1
        det = det * u % p
    sdet = det if (n * (n - 1) // 2) % 2 == 0 else -det
    return n % 2, legendre(sdet, p)


def key_fp(entries: Iterable[int], p: int) -> Tuple:
    return ("Fp", p) + _fp_class_of_units(entries, p)


def fq_mul(x, y, a: int, p: int):
    """Product in F_p(sqrt a) of pairs (u, v) = u + v sqrt(a)."""
    return (x[0] * y[0] + a * x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p


def key_fq(entries, a: int, p: int) -> Tuple:
    entries = list(entries)
    det = (1, 0)
    for c in entries:
        det = fq_mul(det, c, a, p)
    norm = (det[0] * det[0] - a * det[1] * det[1]) % p
    return ("Fq", p, len(entries) % 2, legendre(norm, p))


def key_r(entries) -> Tuple:
    return ("R", sum(1 if c > 0 else -1 for c in entries))


def key_q_classes(classes: Iterable[SqClass]) -> Tuple:
    """Complete W(Q) invariant of the diagonal form with these square classes."""
    sig = 0
    dyadic = 0
    units: Dict[int, List[int]] = {}
    for sign, primes in classes:
        sig += sign
        for p in primes:
            if p == 2:
                dyadic ^= 1
                continue
            u = sign
            for q in primes:
                if q != p:
                    u = u * q % p
            units.setdefault(p, []).append(u)
    residues = []
    for p in sorted(units):
        cls = _fp_class_of_units(units[p], p)
        if cls != (0, 1):
            residues.append((p,) + cls)
    return ("Q", sig, tuple(residues), dyadic)


def key_q(entries) -> Tuple:
    return key_q_classes(sq_class(c) for c in entries)
