"""Self-check suites runnable from the command line.

Each suite returns (passed, lines).  `witt-fp` cross-checks Witt-class
equality over prime fields against the rank/discriminant classification,
which it computes itself by Euler's criterion; `lam` exercises the
quadratic-extension exact cycle, `ring-laws` samples the ring axioms and
defining relations, and `paper-table` recomputes the closed-form
localization degrees for projective spaces, Grassmannians and the lines on
hypersurfaces.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import comb
from typing import List, Tuple

from . import fields as F
from .engine import bott_residue, build_grassmannian_problem, build_projective_problem
from .engine import build_hypersurface_lines_problem
from .euler import double_factorial
from .fields import FINITE_PRIME, FieldDescriptor, finite_prime, rationals
from .quadext import all_witt_classes, lam_exactness_check, make_context
from .rings import GradedElement, bnn, bsl2n, from_witt, gen, one_elem, twisted_point
from .witt import WittClass, integer_class, witt, zero_class


def _primes_upto(p_max: int) -> List[int]:
    return [p for p in range(3, p_max + 1) if all(p % q for q in range(2, p))]


def _fp_invariant(entries, p: int) -> Tuple[int, bool]:
    """Rank parity, and whether the signed discriminant is a square by
    Euler's criterion."""
    n = len(entries)
    sdet = (-1) ** (n * (n - 1) // 2)
    for u in entries:
        sdet = sdet * u % p
    return (n % 2, pow(sdet, (p - 1) // 2, p) == 1)


def suite_witt_fp(p_max: int = 11, rank_max: int = 4) -> Tuple[bool, List[str]]:
    """Equality over F_p must agree with the (rank parity, signed
    discriminant is a square) classification, computed here by Euler's
    criterion, and <1>, added to itself until the sum is 0, must have order
    4 for p = 3 mod 4 and 2 for p = 1 mod 4."""
    lines = []
    ok = True
    for p in _primes_upto(p_max):
        field = finite_prime(p)
        classes = all_witt_classes(field)
        class_inv = {c: _fp_invariant(c.entries, p) for c in classes}
        bad = 0
        checked = 0
        for rank in range(0, rank_max + 1):
            for entries in product(range(1, p), repeat=rank):
                x = witt(field, *entries)
                inv = _fp_invariant(entries, p)
                for c in classes:
                    checked += 1
                    if (x == c) != (inv == class_inv[c]):
                        bad += 1
        one = witt(field, 1)
        order, total = 1, one
        # past 8 the sum is broken; the order reported then fails the check
        while not total.is_zero() and order < 8:
            order, total = order + 1, total + one
        want_order = 4 if p % 4 == 3 else 2
        line_ok = bad == 0 and order == want_order
        ok = ok and line_ok
        lines.append(
            f"witt-fp p={p}: {checked} comparisons, "
            f"<1> has order {order} (expected {want_order}) ... "
            f"{'pass' if line_ok else 'FAIL'}"
        )
    return ok, lines


_DEFAULT_LAM = (
    (finite_prime(3), -1),
    (finite_prime(5), 2),
    (finite_prime(7), 3),
    (rationals(), Fraction(2)),
)


def _lam_samples(ctx, count: int, seed: int) -> List[WittClass]:
    """Over Q, in turn: a small form, (1 - <a>) times one, and (1 - <a>)
    times a form with entries +-{1, 2}*p*q, p and q primes <= 43 or q = 1."""
    if ctx.base.kind == FINITE_PRIME:
        return all_witt_classes(ctx.base) + all_witt_classes(ctx.ext)
    rng = random.Random(seed)
    pool, primes = [1, -1, 2, -2, 3, 5, -5, 7, 10], [2] + _primes_upto(43)
    gen_cls = witt(ctx.base, 1, -ctx.a)
    out = []
    for i in range(count):
        entries = [rng.choice(pool) for _ in range(rng.randint(0, 3))] if i % 3 < 2 else \
            [rng.choice((1, -1, 2, -2)) * rng.choice(primes) * rng.choice([1] + primes)
             for _ in range(rng.randint(1, 6))]
        x = witt(ctx.base, *map(Fraction, entries))
        out.append(gen_cls * x if i % 3 else x)
    return out


def suite_lam(field=None, a=None, samples: int = 200, seed: int = 0) -> Tuple[bool, List[str]]:
    lines: List[str] = []
    ok = True
    if field is not None and a is not None:
        pairs = [(field, a)]
    else:
        pairs = list(_DEFAULT_LAM)
    for base, aa in pairs:
        ctx = make_context(base, F.coerce(base, aa))
        rep = lam_exactness_check(ctx, _lam_samples(ctx, samples, seed))
        ok = ok and rep.passed
        lines.extend(rep.lines())
    return ok, lines


def _random_coeff(rng: random.Random, field: FieldDescriptor) -> WittClass:
    if field.kind == FINITE_PRIME:
        entries = [rng.randrange(1, field.p) for _ in range(rng.randint(0, 2))]
    else:
        entries = [Fraction(rng.choice([1, -1, 2, -2, 3, 5])) for _ in range(rng.randint(0, 2))]
    return witt(field, *entries)


def _random_elem(rng: random.Random, pres) -> GradedElement:
    from .rings import generator_names

    names = generator_names(pres)
    out = from_witt(pres, _random_coeff(rng, pres.field))
    for _ in range(rng.randint(0, 3)):
        term = from_witt(pres, _random_coeff(rng, pres.field))
        for _ in range(rng.randint(0, 2)):
            term = term * gen(pres, rng.choice(names))
        out = out + term
    return out


def suite_ring_laws(samples: int = 200, seed: int = 0) -> Tuple[bool, List[str]]:
    rng = random.Random(seed)
    Q = rationals()
    ctx = make_context(Q, Fraction(2))
    presentations = [bsl2n(2, Q), bnn(1, Q), bnn(2, finite_prime(5)), twisted_point(ctx)]
    lines = []
    ok = True
    for pres in presentations:
        bad = 0
        n_checks = max(1, samples // len(presentations))
        for _ in range(n_checks):
            x, y, z = (_random_elem(rng, pres) for _ in range(3))
            if x * (y + z) != x * y + x * z:
                bad += 1
            if (x * y) * z != x * (y * z):
                bad += 1
            if x * y != y * x:
                bad += 1
            if x + (y - y) != x:
                bad += 1
        rel_ok = _relations_hold(pres)
        line_ok = bad == 0 and rel_ok
        ok = ok and line_ok
        lines.append(
            f"ring-laws {pres}: {n_checks} triples, relations "
            f"{'hold' if rel_ok else 'BROKEN'} ... {'pass' if line_ok else 'FAIL'}"
        )
    return ok, lines


def _relations_hold(pres) -> bool:
    from .rings import BNN, BSL2N, TWISTED

    one = one_elem(pres)
    if pres.kind == BSL2N:
        return True  # free polynomial ring: nothing extra to check
    if pres.kind == BNN:
        # gen reads x1, e1 as x, e on one factor
        xes = [(gen(pres, f"x{i}"), gen(pres, f"e{i}")) for i in range(1, pres.n + 1)]
        return all(x * x == one and ((one + x) * e).is_zero() and x * e == -e for x, e in xes)
    if pres.kind == TWISTED:
        a = pres.ctx.a
        base = pres.ctx.base
        y = gen(pres, "y")
        e = gen(pres, "e")
        x = gen(pres, "x")  # the class <a>
        ysq = witt(base, F.one(base), F.one(base), F.neg(base, a), F.neg(base, a))
        return y * y == from_witt(pres, ysq) and x * e == -e
    return True


def suite_table(n_max: int = 4, field=None) -> Tuple[bool, List[str]]:
    """Localization degrees with known closed forms: chi(P^2n) = <1>,
    chi(P^(2n-1)) = 0, binomial(n, r)<1> for the Grassmannian of 2r-planes
    in 2n-space, and (2N-3)!!<1> lines on a degree-(2N-3) hypersurface in
    P^N for odd N < 2n."""
    k = field if field is not None else rationals()
    one, zero = integer_class(1, k), zero_class(k)
    checks = []  # (label, problem, expected class, count shown or None)
    for n in range(1, min(n_max, 3) + 1):
        checks.append((f"P^{2*n}", build_projective_problem(2 * n, n, k), one, None))
        checks.append((f"P^{2*n-1}", build_projective_problem(2 * n - 1, n, k), zero, None))
    for n in range(2, n_max + 1):
        for r in range(1, n):
            count = comb(n, r)
            problem = build_grassmannian_problem(2 * r, 2 * n, n, k)
            checks.append((f"Gr({2*r},{2*n})", problem, integer_class(count, k), count))
    for N in range(3, 2 * n_max, 2):
        count = double_factorial(2 * N - 3)
        checks.append((f"lines on a degree-{2*N-3} hypersurface in P^{N}",
                       build_hypersurface_lines_problem(N, k), integer_class(count, k), count))
    lines = []
    ok = True
    for label, problem, want, count in checks:
        got = bott_residue(problem).degree_zero
        good = got == want
        ok = ok and good
        expected = "" if count is None else f", expected {count}<1>"
        lines.append(f"{label}: degree {got!r}{expected} ... {'pass' if good else 'FAIL'}")
    return ok, lines


# each suite's function and every option it reads; lam reads --field and --a
# together
SUITES = {
    "witt-fp": (suite_witt_fp, ("p_max", "rank_max")),
    "lam": (suite_lam, ("field", "a", "samples", "seed")),
    "ring-laws": (suite_ring_laws, ("samples", "seed")),
    "paper-table": (suite_table, ("field", "n_max")),
}
