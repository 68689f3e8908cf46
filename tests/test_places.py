import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from oracles import (
    fp_witt_equivalent,
    hasse_invariant_pairwise,
    local_in_ideal_by_enumeration,
    local_witt_zero_by_hasse,
    rationals_by_rekeying,
    wq_key_by_valuations,
    wq_key_mul_by_rescans,
)
from sympy import factorint, nextprime, primefactors

from wittloc import places
from wittloc.fields import least_nonresidue, rationals
from wittloc.places import (
    INF,
    WF_ZERO,
    hasse_invariant,
    hilbert,
    is_square_qv,
    ker_iota_rational,
    local_witt_zero,
    signed_disc,
    squarefree_part,
    vp,
    wq_key,
    wq_key_add,
    wq_key_mul,
    wq_key_neg,
    wq_key_scale,
    WQ_ZERO,
    wf_add,
    wf_mul,
    wf_neg,
    wf_units,
    _factor,
    _residue_forms_zero,
    sqrt_mod_prime_power,
)
from wittloc.witt import WittClass, witt


def _counted(entries):
    """(entry, count) terms of a diagonal form."""
    return tuple(Counter(entries).items())


@pytest.mark.parametrize("digits", [3, 6, 9, 12, 15, 18, 20])
def test_factor_matches_sympy_on_seeded_integers(digits):
    rng = random.Random(digits)
    for _ in range(150):
        n = rng.randrange(1, 10**digits)
        assert _factor(n) == tuple(sorted(factorint(n).items())), n


@pytest.mark.parametrize(
    "n, expected",
    [
        (561, ((3, 1), (11, 1), (17, 1))),
        (1105, ((5, 1), (13, 1), (17, 1))),
        (1729, ((7, 1), (13, 1), (19, 1))),
        (41041, ((7, 1), (11, 1), (13, 1), (41, 1))),
        (3215031751, ((151, 1), (751, 1), (28351, 1))),
        (3825123056546413051, ((149491, 1), (747451, 1), (34233211, 1))),
        (318665857834031151167461, ((399165290221, 1), (798330580441, 1))),
        (3317044064679887385961981, ((1287836182261, 1), (2575672364521, 1))),
    ],
)
def test_factor_splits_carmichael_numbers_and_strong_pseudoprimes(n, expected):
    assert _factor(n) == expected


@pytest.mark.parametrize("p, q", [(1009, 1013), (999983, 1000003), (10**9 + 7, 10**9 + 9)])
def test_factor_of_prime_powers_above_the_trial_bound(p, q):
    assert _factor(p) == ((p, 1),)
    assert _factor(p**2) == ((p, 2),)
    assert _factor(p**3) == ((p, 3),)
    assert _factor(p * q**2) == ((p, 1), (q, 2))
    assert _factor(2**5 * 997 * p * q) == ((2, 5), (997, 1), (p, 1), (q, 1))


def test_factor_edge_cases():
    assert _factor(1) == ()
    assert _factor(2) == ((2, 1),)
    big = nextprime(10**25)
    assert _factor(big) == ((big, 1),)
    for n in (0, -1, -12):
        with pytest.raises(ValueError):
            _factor(n)


def test_squarefree_part():
    assert squarefree_part(Fraction(8)) == 2
    assert squarefree_part(Fraction(-18)) == -2
    assert squarefree_part(Fraction(9, 4)) == 1
    assert squarefree_part(Fraction(5, 27)) == 15


def test_vp():
    assert vp(Fraction(8), 2) == 3
    assert vp(Fraction(9, 4), 2) == -2
    assert vp(Fraction(5), 3) == 0


def test_hilbert_symbol_symmetry_and_bilinearity():
    vals = [Fraction(c) for c in (1, -1, 2, 3, 5, -6)]
    for v in (2, 3, 5, INF):
        for a, b in product(vals, repeat=2):
            assert hilbert(a, b, v) == hilbert(b, a, v)
        for a, b, c in product(vals, repeat=3):
            assert hilbert(a, b * c, v) == hilbert(a, b, v) * hilbert(a, c, v)


def test_hilbert_reciprocity():
    """The product of (a,b)_v over all places is 1."""
    vals = [Fraction(c) for c in (-1, 2, 3, 5, 7, -10, 15)]
    for a, b in product(vals, repeat=2):
        places = {2, INF}
        for x in (a, b):
            n = abs(x.numerator * x.denominator)
            while n % 2 == 0:
                n //= 2
            d = 3
            while d * d <= n:
                if n % d == 0:
                    places.add(d)
                    while n % d == 0:
                        n //= d
                d += 2
            if n > 1:
                places.add(n)
        prod_sym = 1
        for v in places:
            prod_sym *= hilbert(a, b, v)
        assert prod_sym == 1, (a, b)


def test_local_witt_zero_hyperbolic():
    for v in (2, 3, 5, INF):
        assert local_witt_zero(_counted((Fraction(1), Fraction(-1))), v)
        assert local_witt_zero(_counted((Fraction(3), Fraction(-3), Fraction(7), Fraction(-7))), v)


def test_local_witt_zero_anisotropic():
    # <1,1> is anisotropic over R and over Q_3
    assert not local_witt_zero(_counted((Fraction(1), Fraction(1))), INF)
    assert not local_witt_zero(_counted((Fraction(1), Fraction(1))), 3)
    # but splits over Q_5 since -1 is a square there
    assert local_witt_zero(_counted((Fraction(1), Fraction(1))), 5)


def test_fp_group_structure():
    """W(F_p) is Z/4 for p = 3 mod 4 and Klein-four for p = 1 mod 4: 4x = 0,
    x - x = 0, and 2<1> is 0 exactly when -1 is a square."""
    for p in (3, 5, 7, 11):
        m1 = p % 4 == 1
        classes = [(0, True), (1, True), (1, False), (0, False)]
        for c in classes:
            total = WF_ZERO
            for _ in range(4):
                total = wf_add(total, c, m1)
            assert total == WF_ZERO
            assert wf_add(c, wf_neg(c, m1), m1) == WF_ZERO
        assert (wf_add((1, True), (1, True), m1) == WF_ZERO) == m1


@pytest.mark.parametrize("p", [5, 7])
def test_wf_mul_table_matches_diagonal_products(p):
    """Every product of two W(F_p) classes is the class of the pairwise
    products of diagonal representatives, with Witt equivalence decided by
    hyperbolic splitting."""
    s = least_nonresidue(p)
    m1 = p % 4 == 1
    reps = {(0, True): [], (1, True): [1], (1, False): [s],
            (0, False): [1, s] if m1 else [1, 1]}
    for key, entries in reps.items():
        assert wf_units(((pow(u, (p - 1) // 2, p) == 1, 1) for u in entries), m1) == key
    for (k1, e1), (k2, e2) in product(reps.items(), repeat=2):
        prod_entries = [u * w % p for u in e1 for w in e2]
        assert fp_witt_equivalent(prod_entries, reps[wf_mul(k1, k2)], p), (k1, k2)
    if m1:
        # -1 is a square: <s>^2 = <1> and <1, s>^2 = 0
        assert wf_mul((1, False), (1, False)) == (1, True)
        assert wf_mul((0, False), (0, False)) == WF_ZERO
    else:
        # Z/4: 2<1> * 2<1> = 0 and <-1>^2 = <1>
        assert wf_mul((0, False), (0, False)) == WF_ZERO
        assert wf_mul((1, False), (1, False)) == (1, True)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_wf_units_matches_euler_criterion(p):
    """wf_units of counted unit entries is (rank mod 2, whether the signed
    discriminant is a square by Euler's criterion), and wf_add and wf_neg
    follow orthogonal sum and negation of the forms."""
    rng = random.Random(f"wf:{p}")
    m1 = p % 4 == 1

    def by_euler(terms):
        n = sum(k for _, k in terms)
        d = (-1) ** (n * (n - 1) // 2)
        for u, k in terms:
            d = d * pow(u, k, p) % p
        return (n % 2, pow(d, (p - 1) // 2, p) == 1)

    def cls(terms):
        return wf_units(((pow(u, (p - 1) // 2, p) == 1, k) for u, k in terms), m1)

    def draw():
        return [(rng.randrange(1, p), rng.randint(1, 9)) for _ in range(rng.randint(0, 3))]

    for _ in range(100):
        x, y = draw(), draw()
        assert cls(x) == by_euler(x), x
        assert wf_add(cls(x), cls(y), m1) == by_euler(x + y), (x, y)
        assert wf_neg(cls(x), m1) == by_euler([(p - u, k) for u, k in x]), x


def test_wq_key_group_laws():
    xs = [
        wq_key(((Fraction(1), 1), (Fraction(2), 1))),
        wq_key(((Fraction(-3), 2), (Fraction(5), 1))),
        wq_key(((Fraction(7), 1), (Fraction(-1), 3), (Fraction(6, 5), 1))),
    ]
    for x in xs:
        assert wq_key_add(x, wq_key_neg(x)) == WQ_ZERO
        for y in xs:
            assert wq_key_add(x, y) == wq_key_add(y, x)


def test_ker_iota_rational_examples():
    # x in ker(W(Q) -> W(Q(sqrt 2))) iff x is a multiple of <1> + <-2>
    a = Fraction(2)
    assert ker_iota_rational(_counted((Fraction(1), Fraction(-2))), a)
    assert ker_iota_rational(_counted(()), a)
    assert not ker_iota_rational(_counted((Fraction(1),)), a)
    assert not ker_iota_rational(_counted((Fraction(1), Fraction(-3))), a)
    # (1 - <2>)*<5> dies as well
    assert ker_iota_rational(_counted((Fraction(5), Fraction(-10))), a)


def test_signed_disc_and_hasse():
    e = (Fraction(1), Fraction(-1))
    assert signed_disc(_counted(e)) == 1
    assert hasse_invariant(e, 2) == hilbert(Fraction(1), Fraction(-1), 2)


@pytest.mark.parametrize("v", [INF, 2, 3, 5, 7])
def test_hasse_invariant_matches_the_pairwise_product(v):
    """The running-product Hasse invariant equals the product of the Hilbert
    symbols of all pairs, on seeded random forms."""
    rng = random.Random(f"hasse:{v}")
    values = set()
    for _ in range(60):
        entries = tuple(
            Fraction(rng.choice([-1, 1]) * rng.randint(1, 60), rng.randint(1, 12))
            for _ in range(rng.randint(0, 7))
        )
        h = hasse_invariant(entries, v)
        assert h == hasse_invariant_pairwise(entries, v), entries
        values.add(h)
    assert values == {1, -1}


KERNEL_A_VALUES = [2, 3, 5, 6, 17, -1, -2, -3, -7, -15]


def _kernel_by_enumeration(entries, a, support):
    """ker(W(Q) -> W(Q(sqrt a))) tested place by place, with the local kernel
    at places where a is not a square decided by multiplier enumeration."""
    if len(entries) % 2:
        return False
    if squarefree_part(signed_disc(_counted(entries))) not in (1, squarefree_part(a)):
        return False
    if a > 0 and sum(1 if c > 0 else -1 for c in entries):
        return False
    return all(
        local_witt_zero(_counted(entries), v) if is_square_qv(a, v)
        else local_in_ideal_by_enumeration(entries, a, v)
        for v in support
    )


@pytest.mark.parametrize("a", KERNEL_A_VALUES)
def test_local_kernel_closed_form_matches_the_enumeration(a):
    """Where a is not a square in Q_v, <1,-a>W(Q_v) is the even-rank forms of
    signed discriminant in {1, a} Q_v*^2; ker_iota_rational agrees with the
    place-by-place test that enumerates that kernel."""
    rng = random.Random(f"local-kernel:{a}")
    a = Fraction(a)
    outcomes = set()
    for i in range(40):
        rank = rng.randint(0, 6)
        if i % 2:
            base = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 30)) for _ in range(rank // 2)]
            entries = tuple(x for c in base for x in (c, -a * c))
        else:
            entries = tuple(Fraction(rng.choice([-1, 1]) * rng.randint(1, 30)) for _ in range(rank))
        support = {2, *primefactors(int(a))}
        for c in entries:
            support.update(primefactors(c.numerator))
        d = signed_disc(_counted(entries))
        for v in sorted(support):
            if is_square_qv(a, v):
                continue
            closed = len(entries) % 2 == 0 and (is_square_qv(d, v) or is_square_qv(d * a, v))
            assert local_in_ideal_by_enumeration(entries, a, v) == closed, (entries, a, v)
            outcomes.add(closed)
        assert ker_iota_rational(_counted(entries), a) == _kernel_by_enumeration(entries, a, support)
    assert outcomes == {True, False}


@pytest.mark.parametrize("d, N", [(1, 2), (2, 4), (3, 4), (5, 4), (7, 8), (15, 8), (23, 8)])
def test_integer_classes_in_the_kernel_follow_the_level(d, N):
    """t<1> dies in W(Q(sqrt -d)) iff N | t, N twice the level; for
    d = 7, 15, 23 the prime 2 splits and Q_2 needs the local test."""
    for t in range(-16, 17):
        entries = (Fraction(1 if t > 0 else -1),) * abs(t)
        assert ker_iota_rational(_counted(entries), Fraction(-d)) == (t % N == 0), t


@pytest.mark.parametrize("a", [2, 5, 17])
def test_integer_classes_survive_a_real_quadratic_extension(a):
    for t in range(-16, 17):
        entries = (Fraction(1 if t > 0 else -1),) * abs(t)
        assert ker_iota_rational(_counted(entries), Fraction(a)) == (t == 0), t


def test_springer_test_reads_both_residue_forms():
    """(valuation, unit residue, count) triples at p = 3: <1, 2> is 0 in
    W(F_3) and <1, 1> is not, in either residue form; over F_9, given by
    norms, <e1, e2> with norms 1 and 2 is not 0."""
    assert _residue_forms_zero([(0, 1, 1), (0, 2, 1), (1, 1, 1), (1, 2, 1)], 3, -1)
    assert not _residue_forms_zero([(0, 1, 1), (0, 2, 1), (1, 1, 2)], 3, -1)
    assert not _residue_forms_zero([(2, 1, 2), (3, 1, 1), (3, 2, 1)], 3, -1)
    assert _residue_forms_zero([(0, 2, 2)], 3, 1)
    assert not _residue_forms_zero([(0, 1, 1), (0, 2, 1)], 3, 1)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_springer_agrees_with_the_hasse_invariant_test(p):
    """At an odd prime, local_witt_zero (Springer on the two residue forms)
    agrees with the discriminant and Hasse invariant test on seeded forms
    with counts; both outcomes occur."""
    rng = random.Random(f"springer:{p}")
    pool = [Fraction(s * p ** e * u) for s in (1, -1) for e in (0, 1) for u in range(1, p)]
    pool += [Fraction(c, p) for c in pool[:4]]
    outcomes = []
    for _ in range(300):
        terms = tuple((rng.choice(pool), rng.randint(1, 10)) for _ in range(rng.randint(0, 4)))
        got = local_witt_zero(terms, p)
        assert got == local_witt_zero_by_hasse(terms, p), terms
        outcomes.append(got)
    assert 10 <= outcomes.count(True) <= 290


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 17, 41, 97])
def test_sqrt_mod_prime_power(p):
    """Roots of every unit square mod p (d = 1 mod 8 at p = 2), lifted to
    p^k for k up to 12."""
    if p == 2:
        ds = range(-199, 200, 8)
    else:
        ds = [d for d in range(-2 * p, 2 * p) if d % p and pow(d, (p - 1) // 2, p) == 1]
    for d in ds:
        for k in (1, 2, 5, 12):
            s = sqrt_mod_prime_power(d, p, k)
            assert (s * s - d) % p ** k == 0, (d, k, s)


def test_a_rational_class_factors_no_integer_larger_than_its_entries(monkeypatch):
    """The primes of odd valuation of c = num/den are those of num and of
    den, which are coprime, so each is factored on its own: a W(Q) class at
    height 10^12 with denominators, its sum, product and printed form hand
    _factor no integer larger than its largest numerator or denominator."""
    rng = random.Random("factor the numerator and the denominator apart")
    entries = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 10 ** 12), rng.randint(2, 10 ** 12))
               for _ in range(6)]
    bound = max(max(abs(c.numerator), c.denominator) for c in entries)
    factored = []
    real = places._factor
    monkeypatch.setattr(places, "_factor", lambda n: factored.append(n) or real(n))
    Q = rationals()
    x, y = witt(Q, *entries[:3]), witt(Q, *entries[3:])
    str(x + y), str(x * y)
    assert factored and max(factored) <= bound
    assert squarefree_part(entries[0]) == squarefree_part(Fraction(
        entries[0].numerator * entries[0].denominator))


# -- the W(Q) key kernels against their first forms (oracles) ------------------


def random_wq_entry(rng):
    """A nonzero rational: half the time a signed product of up to three
    primes below 50 over 1, 2, 3 or 4, so that entries share residue primes
    and meet the least non-residues; else of height up to 10^8, with a
    denominator 2 times in 5."""
    if rng.random() < 0.5:
        num = math.prod(rng.choice(SMALL_PRIMES) for _ in range(rng.randint(0, 3)))
        return Fraction(rng.choice((-1, 1)) * num, rng.randint(1, 4))
    h = 10 ** rng.choice((2, 4, 6, 8))
    den = rng.randint(1, h) if rng.random() < 0.4 else 1
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, h), den)


def random_wq_terms(rng, size=4):
    return [(random_wq_entry(rng), rng.randint(1, 3)) for _ in range(rng.randint(0, size))]


def random_wq_key(rng):
    """The key of a random form, half the time t times it plus another,
    |t| up to 10^6, so that signatures are large."""
    key = wq_key(random_wq_terms(rng))
    if rng.random() < 0.5:
        key = wq_key_add(wq_key_scale(key, rng.randint(-10 ** 6, 10 ** 6)),
                         wq_key(random_wq_terms(rng, 2)))
    return key


SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_wq_key_of_counted_terms_matches_the_valuation_loops():
    """wq_key of (entry, count) terms, read off _factor's exponents with the
    entry's sign in the unit part, equals the key by valuation loops of the
    entries repeated their counts, over 20,000 forms."""
    rng = random.Random("wq_key against valuations")
    for _ in range(20000):
        terms = random_wq_terms(rng)
        entries = [c for c, n in terms for _ in range(n)]
        assert wq_key(terms) == wq_key_by_valuations(entries), terms


def test_wq_key_mul_matches_the_product_by_rescans():
    """The linear product, one signed discriminant per key, equals the
    product whose first residues rescan the other key, over 3,000 pairs."""
    rng = random.Random("wq_key_mul against rescans")
    for _ in range(3000):
        k1, k2 = random_wq_key(rng), random_wq_key(rng)
        assert wq_key_mul(k1, k2) == wq_key_mul_by_rescans(k1, k2), (k1, k2)


def test_rational_representative_matches_the_rekeyed_one():
    """The one-sweep representative of a W(Q) key, and so the printed
    class, equals the one re-keyed at each prime, over 3,000 classes at
    heights up to 10^8 with denominators."""
    rng = random.Random("representative against re-keying")
    Q = rationals()
    for _ in range(3000):
        key = random_wq_key(rng)
        want = rationals_by_rekeying(key)
        x = WittClass(Q, key)
        assert x.terms == want, key
        printed = " + ".join(f"{'' if n == 1 else f'{n}*'}<{c}>" for c, n in want)
        assert str(x) == (printed or "0"), key
