import importlib
import random
import time
from fractions import Fraction

import pytest
from oracles import (is_square_qext_by_fractions, qext_nonzero_by_invariants,
                     qext_reduce_pairwise, witt_product_by_terms, witt_quotient_reference)

from wittloc import fields as F
from wittloc import places
from wittloc.errors import DegenerateForm, NonSymmetric, ZeroInput
from wittloc.places import ker_iota_rational
from wittloc.quadext import base_change, make_context, scaled_transfer, transfer
from wittloc.witt import (
    WittClass,
    diagonalize,
    integer_class,
    square_class,
    witt,
    zero_class,
)

Q = F.rationals()
R = F.reals()


def test_hyperbolic_is_zero():
    assert witt(Q, 1, -1).is_zero()
    assert witt(Q, 5, -5).is_zero()
    assert witt(F.finite_prime(7), 3, 4).is_zero()  # 4 = -3 mod 7


def test_square_class_collapse():
    assert square_class(Q, Fraction(8)) == square_class(Q, Fraction(2))
    assert square_class(Q, Fraction(9, 4)) == square_class(Q, Fraction(1))
    assert square_class(Q, Fraction(-50)) == square_class(Q, Fraction(-2))


def test_degenerate_entry_rejected():
    with pytest.raises(ZeroInput):
        witt(Q, 1, 0)


@pytest.mark.parametrize("field", [Q, R, F.finite_prime(7), F.quad_ext(F.finite_prime(7), 3),
                                   F.quad_ext(Q, 2)], ids=str)
def test_from_entries_rejects_a_zero_entry(field):
    """A zero diagonal entry is the typed ZeroInput over every field kind,
    not a class and not an untyped error."""
    for entries in ((F.zero(field),), (F.one(field), F.zero(field))):
        with pytest.raises(ZeroInput):
            WittClass.from_entries(field, entries)


def test_ring_axioms_small():
    a = witt(Q, 1, 2)
    b = witt(Q, -3)
    c = witt(Q, 5, 1, -2)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a - a).is_zero()
    one = integer_class(1, Q)
    assert a * one == a


def test_diagonalize_gram_matrix():
    g = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    d = diagonalize(g, Q)
    assert witt(Q, *d).is_zero()  # the hyperbolic plane
    g2 = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]]
    d2 = diagonalize(g2, Q)
    assert witt(Q, *d2) == witt(Q, 1, -3)


def test_diagonalize_rejects_singular_and_asymmetric():
    with pytest.raises(DegenerateForm):
        diagonalize([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]], Q)
    with pytest.raises(NonSymmetric):
        diagonalize([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(1)]], Q)


def test_signature_over_reals():
    x = witt(R, 1, 1, -1)
    assert x.signatures() == (1,)
    assert x == integer_class(1, R)
    assert integer_class(-3, R).signatures() == (-3,)


def test_rational_canonical_invariants():
    # <1,1,1,1> is not zero over Q although its signature alone would
    # distinguish it anyway; compare against torsion over F_3 behaviour
    x = witt(Q, 1, 1, 1, 1)
    assert not x.is_zero()
    f3 = F.finite_prime(3)
    assert witt(f3, 1, 1, 1, 1).is_zero()


def test_rational_second_residues():
    # <3> + <-3> = 0, but <3> + <3> has a nontrivial residue at 3
    x = square_class(Q, Fraction(3)) + square_class(Q, Fraction(3))
    assert not x.is_zero()
    assert x != integer_class(2, Q)


def test_canonical_entries_reconstruct_same_class():
    samples = [
        witt(Q, 2, 3, -5),
        witt(Q, 7, 7, 7),
        witt(Q, -1, 15, 6, 10),
        witt(Q, Fraction(1, 2), Fraction(-3, 4)),
    ]
    for x in samples:
        assert WittClass.from_entries(Q, x.entries) == x


def test_multiplication_by_int():
    x = witt(Q, 2)
    assert 3 * x == x + x + x
    assert 0 * x == zero_class(Q)
    assert -2 * x == -(x + x)


def test_fp_class_count():
    # W(F_p) has exactly 4 elements
    from itertools import product

    for p in (3, 5):
        f = F.finite_prime(p)
        classes = set()
        for r in range(0, 3):
            for es in product(range(1, p), repeat=r):
                classes.add(witt(f, *es))
        assert len(classes) == 4


def test_quadext_hyperbolic_and_norm_relations():
    ext = F.quad_ext(Q, Fraction(2))
    r = F.coerce(ext, (0, 1))
    x = WittClass.from_entries(ext, (F.one(ext), F.neg(ext, r)))  # <1> + <-sqrt2>
    y = WittClass.from_entries(ext, (r,)) * x
    assert (x + (-x)).is_zero()
    # <2> = <1> in the extension since 2 is a square there
    assert WittClass.from_entries(ext, (F.coerce(ext, 2),)) == WittClass.from_entries(
        ext, (F.one(ext),)
    )
    assert y == WittClass.from_entries(ext, (r, F.neg(ext, F.coerce(ext, 2))))


def test_quadext_undecidable_cases_raise():
    ext = F.quad_ext(F.finite_prime(5), 2)
    a = WittClass.from_entries(ext, (F.one(ext),))
    b = WittClass.from_entries(ext, (F.first_nonsquare(ext),))
    assert a != b  # decided by the discriminant, no Undecided here


# -- key-first classes --------------------------------------------------------

C = F.quad_ext(R, -1)
KEYED_FIELDS = [
    Q,
    R,
    F.finite_prime(13),  # p = 1 mod 4
    F.finite_prime(7),  # p = 3 mod 4
    F.quad_ext(F.finite_prime(7), 3),
    C,
]


def random_entries(rng, field, max_rank=5):
    def scalar():
        if field.kind == "Fp":
            return rng.randrange(1, field.p)
        if field.kind == "QuadExt" and field.base.kind == "Fp":
            p = field.base.p
            return rng.choice([(u, v) for u in range(p) for v in range(p) if (u, v) != (0, 0)])
        q = Fraction(rng.choice([-1, 1]) * rng.randint(1, 300), rng.randint(1, 40))
        return (q, Fraction(rng.randint(-3, 3))) if field == C else q

    return tuple(F.coerce(field, scalar()) for _ in range(rng.randint(0, max_rank)))


@pytest.mark.parametrize("field", KEYED_FIELDS, ids=str)
def test_key_arithmetic_matches_canonicalized_entries(field):
    rng = random.Random(str(field))
    for _ in range(60):
        ex, ey = random_entries(rng, field), random_entries(rng, field)
        x, y = WittClass.from_entries(field, ex), WittClass.from_entries(field, ey)
        assert (x + y).key == WittClass.from_entries(field, ex + ey).key
        negated = tuple(F.neg(field, c) for c in ex)
        assert (-x).key == WittClass.from_entries(field, negated).key
        assert WittClass.from_entries(field, x.entries).key == x.key
        # terms: distinct entries, counts >= 1, expanding to entries
        distinct = [c for c, _ in x.terms]
        assert len(set(distinct)) == len(distinct) and all(n >= 1 for _, n in x.terms)
        assert x.entries == tuple(c for c, n in x.terms for _ in range(n))
        prod = WittClass.from_entries(field, [F.mul(field, c, d) for c in ex for d in ey])
        assert (x * y).key == prod.key
        fold = zero_class(field)
        for n in range(6):
            assert n * x == fold and (-n) * x == -fold
            fold = fold + x


@pytest.mark.parametrize("field", KEYED_FIELDS, ids=str)
def test_integer_value_is_exact(field):
    one = integer_class(1, field)
    for n in range(-20, 21):
        t = (n * one).integer_value()
        assert t is not None and integer_class(t, field) == n * one
    assert integer_class(13, Q).integer_value() == 13
    assert square_class(Q, Fraction(2)).integer_value() is None
    assert (witt(Q, 3) + witt(Q, 3)).integer_value() is None


INTEGER_MODULI = [
    (Q, 0), (R, 0), (F.quad_ext(Q, 2), 0), (F.quad_ext(Q, 5), 0),
    (F.finite_prime(7), 4), (F.quad_ext(Q, -2), 4), (F.quad_ext(Q, -3), 4),
    (F.finite_prime(5), 2), (F.finite_prime(13), 2), (F.quad_ext(F.finite_prime(3), -1), 2),
    (F.quad_ext(F.finite_prime(7), 3), 2), (F.quad_ext(Q, -1), 2),
    (F.quad_ext(Q, -7), 8), (F.quad_ext(Q, -15), 8),
    (F.quad_ext(R, -1), 2), (F.quad_ext(Q, Fraction(1, 2)), 0),
    (F.quad_ext(Q, Fraction(-1, 4)), 2), (F.quad_ext(Q, Fraction(-7, 4)), 8),
]


@pytest.mark.parametrize("field, N", INTEGER_MODULI, ids=lambda x: str(x))
def test_integer_modulus_is_the_order_of_one(field, N):
    """Z/N is the image of Z in W(k): twice the level, 0 over ordered k."""
    assert field.modulus == N
    assert field.minus_one_square == (N == 2)
    for t in range(1, 17):
        assert integer_class(t, field).is_zero() == (N > 0 and t % N == 0)


def _order_of_one(field):
    """The additive order of <1>, found by adding <1> until the sum is 0,
    or 0 when 8<1> is not 0, as 8<1> = 0 over every k that is not
    formally real."""
    one, total = integer_class(1, field), zero_class(field)
    for t in range(1, 9):
        total = total + one
        if total.is_zero():
            return t
    return 0


def test_integer_modulus_of_seeded_quadratic_extensions_factors_nothing(monkeypatch):
    """field.modulus is the additive order of <1> on 200 seeded Q(sqrt a),
    a up to height 10^12 with denominators, and making those fields
    factors no integer: N is read off a in closed form."""
    rng = random.Random("modulus-of-Q(sqrt a)")
    values = []
    while len(values) < 200:
        a = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10 ** 12),
                     rng.choice((1, rng.randint(1, 10 ** 12))))
        if not F.is_square(Q, a):
            values.append(a)
    values += [Fraction(-7 * 4 ** 5 * 9, 25), Fraction(-9, 4), Fraction(-14)]  # 8, 2, 4
    factored = []
    monkeypatch.setattr(places, "_factor", lambda n: factored.append(n) or ())
    made = [F.quad_ext(Q, a) for a in values]
    assert factored == []
    monkeypatch.undo()
    for field in made:
        assert field.modulus == _order_of_one(field), field


@pytest.mark.parametrize("a", [2, 3, 5, -1, -2, -3, -7, -15])
def test_integer_class_over_a_quadratic_extension_is_the_repeated_sum(a):
    """The written-down representative of t<1> over Q(sqrt a) is the one
    that adding <1> or <-1> |t| times and reducing gives."""
    field = F.quad_ext(Q, a)
    for t in range(-9, 10):
        unit = WittClass.from_entries(field, (F.coerce(field, 1 if t > 0 else -1),))
        total = zero_class(field)
        for _ in range(abs(t)):
            total = total + unit
        assert integer_class(t, field).entries == total.entries, t


def test_rational_arithmetic_builds_no_representative(monkeypatch):
    witt_module = importlib.import_module("wittloc.witt")
    calls = []
    real = witt_module._reconstruct_rationals

    def counting(key):
        calls.append(key)
        return real(key)

    monkeypatch.setattr(witt_module, "_reconstruct_rationals", counting)
    x = WittClass.from_entries(Q, (Fraction(3), Fraction(-10), Fraction(7, 2)))
    y = WittClass.from_entries(Q, (Fraction(5), Fraction(1, 3)))
    z = (x + y) - (-x) + 5 * y + (-3) * x + x * integer_class(2, Q) + integer_class(-4, Q) * y
    assert z == z and z != x and hash(z) == hash(z + zero_class(Q))
    assert not z.is_zero() and (z - z).is_zero()
    assert calls == []
    assert x.entries and x.entries == x.entries and len(calls) == 1


def test_rational_product_is_computed_on_the_keys(monkeypatch):
    """A product over Q canonicalizes nothing and builds no representative,
    however many residue primes its factors have."""
    witt_module = importlib.import_module("wittloc.witt")
    x = witt(Q, 3, -5, 7, Fraction(11, 2), 13, 13 * 17)
    y = witt(Q, 15, -21, 22, Fraction(1, 13))
    assert len({p for p, _ in x.key[1]} | {p for p, _ in y.key[1]}) >= 4
    calls = []
    for name in ("_canonicalize", "_reconstruct_rationals"):
        real = getattr(witt_module, name)
        monkeypatch.setattr(witt_module, name,
                            lambda *args, name=name, real=real: calls.append(name) or real(*args))
    z = x * y
    assert calls == []
    monkeypatch.undo()
    assert z == witt_product_by_terms(x, y)


# -- W(Q(sqrt a)): closed-form normalization against the pool scan -------------

witt_module = importlib.import_module("wittloc.witt")
# a = 1/2 has a denominator, a = -7 level 8
QEXT_FIELDS = [F.quad_ext(Q, a) for a in (2, 3, 5, 12, -1, -2, Fraction(1, 2), -7)]


def random_qext_entry(rng, field):
    """A nonzero entry of Q(sqrt a): a random one, or d or d*sqrt(a) (d
    squarefree or prime, up to 97) times a random square."""
    def rat(h):
        return Fraction(rng.randint(-h, h), rng.randint(1, 9))

    while True:
        if rng.random() < 0.4:
            c = F.coerce(field, (rat(60), rat(60) if rng.random() < 0.6 else 0))
        else:
            d = rng.choice([1, 2, 3, 5, 6, 7, 10, 30, 46, 47, 51, 53, 58, 66, 97])
            d = Fraction(rng.choice([-d, d]))
            r = F.coerce(field, (0, d) if rng.random() < 0.5 else (d, 0))
            s = F.coerce(field, (rat(9), rat(9) if rng.random() < 0.5 else 0))
            c = F.mul(field, r, F.mul(field, s, s))
        if not F.is_zero(field, c):
            return c


def random_qext_form(rng, field):
    """Up to 8 entries, some followed by a negated multiple c' = -c*s^2, so
    that hyperbolic pairs are present in shuffled order."""
    out = []
    for _ in range(rng.randint(0, 5)):
        c = random_qext_entry(rng, field)
        out.append(c)
        if rng.random() < 0.5:
            s = F.coerce(field, (rng.randint(1, 5), rng.randint(-3, 3)))
            out.append(F.neg(field, F.mul(field, c, F.mul(field, s, s))))
    rng.shuffle(out)
    return tuple(out)


@pytest.mark.parametrize("field", QEXT_FIELDS, ids=str)
def test_qext_reduction_matches_pairwise_cancellation(field):
    rng = random.Random(f"qext-form-{field}")
    for _ in range(20):
        entries = random_qext_form(rng, field)
        assert WittClass.from_entries(field, entries).entries == qext_reduce_pairwise(field, entries)


@pytest.mark.parametrize("field", QEXT_FIELDS, ids=str)
def test_qext_canonicalization_is_idempotent(field):
    rng = random.Random(f"qext-idem-{field}")
    for _ in range(40):
        x = WittClass.from_entries(field, random_qext_form(rng, field))
        assert WittClass.from_entries(field, x.entries).entries == x.entries


@pytest.mark.parametrize("field", QEXT_FIELDS + [F.quad_ext(Q, a) for a in (
    Fraction(3, 4), Fraction(5, 3), Fraction(-7, 9), Fraction(-2, 5))], ids=str)
def test_qext_integer_pair_test_is_the_field_square_test(field):
    """The integer test of <r, s> hyperbolic agrees with the Fraction
    square test of -r*s (``oracles``) on normalized entries, half of the pairs built hyperbolic (s =
    -r*t^2, t among them a multiple of sqrt(a), so that -r*s can be a
    rational non-square times a)."""
    A, B = field.a.numerator, field.a.denominator
    rng = random.Random(f"qext-pair-{field}")
    outcomes = set()
    for i in range(200):
        c = random_qext_entry(rng, field)
        if i % 2:
            t = F.coerce(field, (rng.randint(-4, 4), rng.randint(-3, 3)) if rng.random() < 0.7
                         else (0, Fraction(rng.randint(1, 5), rng.randint(1, 3))))
            if F.is_zero(field, t):
                t = F.one(field)
            d = F.neg(field, F.mul(field, c, F.mul(field, t, t)))
        else:
            d = random_qext_entry(rng, field)
        r, s = witt_module._normalize_qext_entry(c), witt_module._normalize_qext_entry(d)
        want = is_square_qext_by_fractions(
            field.a, F.neg(field, F.mul(field, F.coerce(field, r), F.coerce(field, s))))
        assert witt_module._hyperbolic_qext(A, B, r, s) == want, (r, s)
        outcomes.add((i % 2, want))
    assert outcomes >= {(1, True), (0, False)}


@pytest.mark.parametrize("field", QEXT_FIELDS, ids=str)
def test_qext_key_is_int_pairs_and_terms_are_field_elements(field):
    rng = random.Random(f"qext-types-{field}")
    for _ in range(20):
        x = WittClass.from_entries(field, random_qext_form(rng, field))
        for y in (x, x + x, -x, 3 * x, x * x):
            assert all(type(u) is int and type(v) is int for (u, v), _ in y.key), y.key
            assert all(type(u) is Fraction and type(v) is Fraction for (u, v), _ in y.terms)
            assert tuple(n for _, n in y.terms) == tuple(n for _, n in y.key)


def test_qext_integer_class_225_takes_under_a_second():
    field = F.quad_ext(Q, 2)
    start = time.perf_counter()
    x = integer_class(225, field)
    assert time.perf_counter() - start < 1.0
    assert x.entries == (F.one(field),) * 225


@pytest.mark.parametrize("a, count", [(2, 2027025), (-7, 1), (-2, 1), (-1, 1)])
def test_qext_integer_class_is_one_counted_entry(a, count):
    """t<1> over Q(sqrt a) is the entry 1 with count t, mod field.modulus."""
    field = F.quad_ext(Q, a)
    x = integer_class(2027025, field)
    assert x.key == ((F.one(field), count),)
    assert x + x == integer_class(2 * 2027025, field) and (x - x).is_zero()


def test_qext_arithmetic_normalizes_no_stored_entry(monkeypatch):
    """Q(sqrt a) entries are normalized once, when they enter through
    from_entries: sums, negation, integer multiples, products with t<1> and
    the zero test normalize no stored entry."""
    field = F.quad_ext(Q, 2)
    first = [F.coerce(field, c) for c in (1, 3, -5, (1, 1), (3, 1))]
    second = [F.coerce(field, c) for c in (-5, (0, 7), 6, 53, (0, 59), (-1, -1))]
    x = WittClass.from_entries(field, first)
    y = WittClass.from_entries(field, second)
    n = integer_class(10395, field)
    calls = []
    real = witt_module._normalize_qext_entry
    monkeypatch.setattr(
        witt_module, "_normalize_qext_entry", lambda c: calls.append(c) or real(c)
    )
    total, neg, five, scaled, zero = x + y, -x, 5 * x, n * x, x.is_zero()
    assert calls == []
    monkeypatch.undo()
    assert total.entries == WittClass.from_entries(field, first + second).entries
    assert (neg + x).is_zero() and set(neg.entries) == {F.neg(field, c) for c in x.entries}
    assert five.entries == WittClass.from_entries(field, x.entries * 5).entries
    assert scaled.entries == tuple(c for c in x.entries for _ in range(10395))
    assert not zero


# -- the W(Q(sqrt a)) zero decision ------------------------------------------

# every splitting type of 2 (split: d = 1 mod 8; inert: d = 5 mod 8;
# ramified) and of small odd primes, with a = d*f^2 for f = 2, 1/2 and 1/3
DECISION_A = [2, 3, 5, 6, 7, 10, 17, 33, -1, -2, -3, -5, -7, -15, -23, 12,
              Fraction(3, 4), Fraction(-7, 9)]


def _small_entry(rng, field, h=6):
    while True:
        c = (Fraction(rng.randint(-h, h), rng.choice([1, 1, 2, 3])),
             Fraction(rng.randint(-h, h)) if rng.random() < 0.7 else Fraction(0))
        if c != (0, 0):
            return F.coerce(field, c)


def _square(rng, field):
    return F.mul(field, *[F.coerce(field, (rng.randint(1, 4), rng.randint(-3, 3)))] * 2)


def _isometric_rewrite(rng, field, entries):
    """A diagonal form isometric to <entries> plus a hyperbolic plane or
    none: entries times squares, binary isometries <c, d> = <c + d,
    cd(c + d)>, shuffled."""
    out = [F.mul(field, c, _square(rng, field)) for c in entries]
    if rng.random() < 0.5:
        h = _small_entry(rng, field)
        out += [F.mul(field, h, _square(rng, field)),
                F.neg(field, F.mul(field, h, _square(rng, field)))]
    rng.shuffle(out)
    for i in range(0, len(out) - 1, 2):
        c, d = out[i], out[i + 1]
        s = F.add(field, c, d)
        if not F.is_zero(field, s) and rng.random() < 0.7:
            out[i:i + 2] = [s, F.mul(field, F.mul(field, c, d), s)]
    return out


@pytest.mark.parametrize("a", DECISION_A, ids=str)
def test_qext_isometric_pairs_are_equal(a):
    field = F.quad_ext(Q, a)
    rng = random.Random(f"qext-isometry:{a}")
    for _ in range(40):
        entries = [_small_entry(rng, field) for _ in range(rng.randint(1, 4))]
        x = WittClass.from_entries(field, entries)
        y = WittClass.from_entries(field, _isometric_rewrite(rng, field, entries))
        assert x == y and (x - y).is_zero() and hash(x) == hash(y), (entries, y)


def test_qext_hash_reads_the_real_signatures():
    """2<1> and 0 over Q(sqrt 2) have the same rank parity but differ in
    both signatures."""
    field = F.quad_ext(Q, 2)
    assert hash(integer_class(2, field)) != hash(zero_class(field))
    assert hash(integer_class(2, field)) != hash(integer_class(-2, field))
    r = F.coerce(field, (0, 1))
    # <sqrt 2> has signatures +1 and -1, <1> has +1 and +1
    assert hash(WittClass.from_entries(field, (r,))) != hash(integer_class(1, field))


@pytest.mark.parametrize("a", [-7, -1, 2], ids=str)
def test_qext_hash_separates_classes_whose_transfer_keys_differ(a):
    """Over Q(sqrt -7) the hash read rank parity alone, so every even-rank
    class landed in one bucket.  It reads the W(Q) keys of Tr(x) and
    Tr(<sqrt a>x) too, which equal classes share."""
    ctx = make_context(Q, a)
    field = ctx.ext
    assert witt(field, 1, 1) == witt(field, 2, 2)
    assert hash(witt(field, 1, 1)) == hash(witt(field, 2, 2))
    rng = random.Random(f"qext-hash:{a}")
    by_keys = {}
    for _ in range(40):
        entries = [_small_entry(rng, field) for _ in range(2 * rng.randint(1, 2))]
        x = WittClass.from_entries(field, entries)
        keys = (transfer(x, ctx).key, scaled_transfer(x, ctx).key)
        # at even rank the transfer keys also fix the signatures, so they fix the hash
        by_keys.setdefault(keys, hash(x))
        assert hash(x) == by_keys[keys]
    hashes = list(by_keys.values())
    assert len(by_keys) >= 8 and len(set(hashes)) == len(hashes)


def _integers_written_otherwise(rng, field):
    """Classes equal to t<1> whose keys are not one entry <1> or <-1>:
    signed sums of squares of random elements, plus hyperbolic planes."""
    out = []
    for _ in range(6):
        entries = [F.mul(field, _square(rng, field), F.coerce(field, rng.choice((1, -1))))
                   for _ in range(rng.randint(1, 4))]
        h = _small_entry(rng, field)
        entries += [h, F.neg(field, F.mul(field, h, _square(rng, field)))] * rng.randint(0, 1)
        out.append(WittClass.from_entries(field, entries))
    return out


# <2> = <1> over Q(sqrt 2); <2, 3> = 2<1> over Q(sqrt 6); <-1> = <1> over Q(sqrt -1)
WRITTEN_INTEGERS = {Fraction(2): ([2], 1), Fraction(6): ([2, 3], 2), Fraction(-1): ([-1], 1)}


@pytest.mark.parametrize("field", QEXT_FIELDS + [F.quad_ext(Q, 6)], ids=str)
def test_qext_integer_value_is_exact(field):
    """integer_value() is t exactly when x == t<1> (t mod N when N > 0), on
    random forms, integers written as sums of squares, t<1> plus a form
    minus an isometric one, and the written integers above."""
    rng = random.Random(f"qext-integer-value:{field}")
    N = field.modulus
    classes = [WittClass.from_entries(field, random_qext_form(rng, field)) for _ in range(8)]
    classes += _integers_written_otherwise(rng, field)
    for _ in range(4):
        entries = [_small_entry(rng, field) for _ in range(rng.randint(1, 3))]
        rewrite = WittClass.from_entries(field, _isometric_rewrite(rng, field, entries))
        classes.append(rng.randint(-4, 4) * integer_class(1, field)
                       + WittClass.from_entries(field, entries) - rewrite)
    if field.a in WRITTEN_INTEGERS:
        entries, t = WRITTEN_INTEGERS[field.a]
        x = witt(field, *entries)
        assert len(x.key) == len(entries) and x.integer_value() == t
        classes.append(x)
    found = 0
    for x in classes:
        v = x.integer_value()
        assert v is None or x == integer_class(v, field) and (not N or 0 <= v < N)
        for t in range(-9, 10):
            same = v is not None and ((v - t) % N == 0 if N else v == t)
            assert (x == integer_class(t, field)) == same, (x, t, v)
        found += v is not None
    assert 0 < found < len(classes)


SIGNATURE_FIELDS = [Q, R, F.finite_prime(7), F.quad_ext(Q, 2), F.quad_ext(Q, 5),
                    F.quad_ext(Q, -7)]


def _random_class(rng, field):
    if field.kind == F.QUAD_EXT:
        return WittClass.from_entries(field, random_qext_form(rng, field))
    entries = [rng.choice([1, -1, 2, -3, 5, 6, -10, 13]) for _ in range(rng.randint(0, 5))]
    return witt(field, *entries)


@pytest.mark.parametrize("field", SIGNATURE_FIELDS, ids=str)
def test_odd_quotient_agrees_with_the_field_by_field_reference(field):
    """c.odd_quotient(t) is the reference closed form, t*q = c when it is a
    class, and it recovers x from t*x, for t odd and, over R, t even."""
    rng = random.Random(f"odd-quotient:{field}")
    ts = [1, -1, 3, -3, 5, 7, -9, 15] + ([2, -4, 6] if field.kind == F.REALS else [])
    for _ in range(12):
        x, c = _random_class(rng, field), _random_class(rng, field)
        for t in ts:
            for dividend in (c, t * x):
                q = dividend.odd_quotient(t)
                ref = witt_quotient_reference(dividend, t)
                assert (q is None) == (ref is None) and (q is None or q == ref), (dividend, t)
                assert q is None or t * q == dividend
            assert (t * x).odd_quotient(t) == x


@pytest.mark.parametrize("field, want", [
    (Q, 1), (R, 1), (F.finite_prime(7), 0), (F.quad_ext(F.finite_prime(7), 3), 0),
    (F.quad_ext(Q, 2), 2), (F.quad_ext(Q, Fraction(1, 2)), 2), (F.quad_ext(Q, -7), 0)], ids=str)
def test_signatures_are_one_per_ordering(field, want):
    """One signature over Q and R, two over Q(sqrt a) with a > 0 (sqrt(a)
    positive, then negative), none over the fields with no ordering."""
    assert integer_class(3, field).signatures() == (3,) * want
    if want == 2:
        root = WittClass.from_entries(field, (F.coerce(field, (1, 1)),))
        assert root.signatures() == (1, 1 if field.a < 1 else -1)
        assert (3 * root - integer_class(1, field)).signatures() == (2, 2 if field.a < 1 else -4)


@pytest.mark.parametrize("a", DECISION_A, ids=str)
def test_qext_zero_agrees_with_the_invariant_reference(a):
    """Wherever rank parity, signatures or the transfers show a class
    nonzero, the decision does too.  A third of the classes are differences
    of isometric forms, so both answers occur, and a third are 2-fold
    Pfister forms <1, -b, -c, bc>, which lie in I^2 and are nonzero exactly
    where the quaternion algebra (b, c) ramifies, at any kind of place."""
    field = F.quad_ext(Q, a)
    rng = random.Random(f"qext-reference:{a}")
    decided = zeros = 0
    for i in range(90):
        entries = [_small_entry(rng, field) for _ in range(rng.randint(1, 4))]
        x = WittClass.from_entries(field, entries)
        if i % 3 == 1:
            b, c = _small_entry(rng, field), _small_entry(rng, field)
            x = WittClass.from_entries(field, [F.one(field), F.neg(field, b), F.neg(field, c),
                                               F.mul(field, b, c)])
        elif i % 3 == 2:
            y = WittClass.from_entries(field, _isometric_rewrite(rng, field, entries))
            x = x - y + rng.randint(1, 3) * WittClass.from_entries(
                field, [_small_entry(rng, field) for _ in range(rng.randint(0, 2))])
        nonzero = qext_nonzero_by_invariants(x)
        zero = x.is_zero()
        assert not (nonzero and zero), x
        decided += bool(nonzero)
        zeros += zero
    assert decided >= 30 and zeros >= 1, (decided, zeros)


@pytest.mark.parametrize("a", DECISION_A, ids=str)
def test_qext_zero_agrees_with_the_rational_kernel(a):
    """A W(Q) class dies in W(Q(sqrt a)) exactly when ker_iota_rational says
    so: classes with counts, and constructed kernel members (1 - <a>)*y."""
    ctx = make_context(Q, a)
    rng = random.Random(f"qext-kernel:{a}")
    outcomes = set()
    for _ in range(40):
        es = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 3))
              for _ in range(rng.randint(0, 3))]
        x = sum((rng.choice([1, 1, 2, 3, 4, 8]) * witt(Q, c) for c in es), zero_class(Q))
        if rng.random() < 0.5:
            x = x * witt(Q, 1, -ctx.a) + rng.choice([0, 0, 4, 8]) * witt(Q, rng.choice(es or [1]))
        dead = ker_iota_rational(x.terms, ctx.a)
        assert base_change(x, ctx).is_zero() == dead, x
        outcomes.add(dead)
    assert outcomes == {True, False}
