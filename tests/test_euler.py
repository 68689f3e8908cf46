import copy
import pickle
import random
from itertools import product

import pytest

from wittloc import fields as F
from wittloc.errors import BadParameters, UnsupportedIrrep
from wittloc.euler import (
    EXACT,
    NIrrep,
    RHO,
    RHO0,
    RHO0_MINUS,
    SQUARE_ONLY,
    UP_TO_SIGN,
    RepSum,
    SL2nIrrep,
    double_factorial,
    euler_rep,
    fundamental,
    generic_euler,
    n_rep,
    sl2n_rep,
    whitney,
)
from wittloc.exprs import parse_rep
from wittloc.rings import (bnn, bsl2n, from_int, gen, integral_bsl2n, one_elem, witt_image,
                           zero_elem)
from wittloc.witt import WittClass

Q = F.rationals()


def test_double_factorial():
    assert double_factorial(1) == 1
    assert double_factorial(3) == 3
    assert double_factorial(5) == 15
    assert double_factorial(9) == 945


@pytest.mark.parametrize("m", [3, 5, 7, 9])
def test_sym_m_odd(m):
    pres = bsl2n(1, Q)
    e = gen(pres, "e")
    val = euler_rep(sl2n_rep(1, [SL2nIrrep((m,))]), Q)
    assert val.determinacy == EXACT
    assert val.value == from_int(pres, double_factorial(m)) * e ** ((m + 1) // 2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_degree_equals_rank_for_every_accepted_irrep(n):
    """deg e(V) = rank V for each SL2^n irrep with a closed formula (all
    exponents below 10), and for Whitney sums of them; e(V) = 0 exactly
    when the rank is odd."""
    accepted = []
    for exps in product(range(10), repeat=n):
        try:
            val = euler_rep(sl2n_rep(n, [SL2nIrrep(exps)]), Q).value
        except UnsupportedIrrep:
            continue
        accepted.append(SL2nIrrep(exps))
        rank = SL2nIrrep(exps).rank
        assert val.is_zero() == (rank % 2 == 1)
        assert val.is_zero() or val.degree() == rank
    assert len(accepted) > 9 * n
    rng = random.Random(f"deg-rank-{n}")
    even = [irrep for irrep in accepted if irrep.rank % 2 == 0]
    for _ in range(10):
        rep = sl2n_rep(n, [(rng.choice(even), rng.randint(1, 2)) for _ in range(rng.randint(1, 3))])
        assert euler_rep(rep, Q).value.degree() == rep.rank


def test_sym_one_is_the_generator():
    pres = bsl2n(1, Q)
    val = euler_rep(sl2n_rep(1, [SL2nIrrep((1,))]), Q)
    assert val.value == gen(pres, "e")


@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_sym_m_even_vanishes(m):
    val = euler_rep(sl2n_rep(1, [SL2nIrrep((m,))]), Q)
    assert val.determinacy == EXACT
    assert val.value.is_zero()


def test_tensor_pair():
    pres = bsl2n(3, Q)
    e1, e3 = gen(pres, "e1"), gen(pres, "e3")
    assert euler_rep(sl2n_rep(3, [fundamental(3, 1, 3)]), Q).value == e1 ** 2 - e3 ** 2


def test_tensor_via_irrep():
    pres = bsl2n(2, Q)
    e1, e2 = gen(pres, "e1"), gen(pres, "e2")
    val = euler_rep(sl2n_rep(2, [SL2nIrrep((1, 1))]), Q)
    assert val.value == e1 ** 2 - e2 ** 2


def test_unsupported_shapes_raise():
    with pytest.raises(UnsupportedIrrep):
        euler_rep(sl2n_rep(2, [SL2nIrrep((1, 3))]), Q)
    with pytest.raises(UnsupportedIrrep):
        euler_rep(sl2n_rep(3, [SL2nIrrep((1, 1, 1))]), Q)


def test_whitney_product():
    rep = sl2n_rep(2, [fundamental(2, 1), fundamental(2, 2)])
    val = euler_rep(rep, Q)
    pres = bsl2n(2, Q)
    assert val.value == gen(pres, "e1") * gen(pres, "e2")


@pytest.mark.parametrize("m", [1, 3, 5])
def test_twisted_line_odd(m):
    pres = bnn(1, Q)
    e = gen(pres, "e")
    val = euler_rep(n_rep([NIrrep(RHO, m)]), Q)
    assert val.determinacy == UP_TO_SIGN
    assert val.value == from_int(pres, m) * e
    assert val.known_square == from_int(pres, m * m) * e * e


@pytest.mark.parametrize("m", [2, 4, 6])
def test_twisted_line_even_square_only(m):
    pres = bnn(1, Q)
    e = gen(pres, "e")
    val = euler_rep(n_rep([NIrrep(RHO, m)]), Q)
    assert val.determinacy == SQUARE_ONLY
    assert val.value is None
    assert val.known_square == from_int(pres, m * m) * e * e


def test_rank_one_characters_vanish():
    for tag in (RHO0, RHO0_MINUS):
        val = euler_rep(n_rep([NIrrep(tag)]), Q)
        assert val.value.is_zero()


def test_paired_signs_cancel():
    # rho(1) + rho(1): the two sign ambiguities square away
    val = euler_rep(n_rep([(NIrrep(RHO, 1), 2)]), Q)
    assert val.determinacy == EXACT
    pres = bnn(1, Q)
    e = gen(pres, "e")
    assert val.value == e * e


def test_generic_euler_odd_rank_zero():
    rep = n_rep([NIrrep(RHO, 1), NIrrep(RHO0)])
    assert generic_euler(rep, Q).is_zero()


def test_generic_euler_square():
    rep = n_rep([NIrrep(RHO, 3)])
    pres = bnn(1, Q)
    e = gen(pres, "e")
    assert generic_euler(rep, Q) == from_int(pres, 9) * e * e


@pytest.mark.parametrize("group", [("SL2n", 3), ("N",)], ids=str)
def test_repsums_of_one_multiset_are_equal_and_hash_equal(group):
    """A RepSum is its multiset: permuting the summands, splitting a
    multiplicity into several summands or merging them gives a RepSum that
    is == and hash-equal, with the same canonical summands and counts."""
    rng = random.Random(f"multiset:{group}")
    if group[0] == "SL2n":
        irreps = [fundamental(3, 1), fundamental(3, 3), fundamental(3, 1, 2),
                  SL2nIrrep((3, 0, 0)), SL2nIrrep((0, 2, 1))]
    else:
        irreps = [NIrrep(RHO, 1), NIrrep(RHO, 4), NIrrep(RHO0), NIrrep(RHO0_MINUS)]
    for _ in range(30):
        multiset = {x: rng.randint(1, 4) for x in rng.sample(irreps, rng.randint(1, len(irreps)))}
        merged = RepSum(group, tuple(multiset.items()))
        split = [(x, 1) for x, k in multiset.items() for _ in range(k)]
        rng.shuffle(split)
        for pairs in (list(multiset.items())[::-1], split):
            other = RepSum(group, tuple(pairs))
            assert other == merged and hash(other) == hash(merged)
            assert other.summands == merged.summands
            assert list(other.counts.items()) == list(merged.summands)
        assert RepSum(group, tuple(split[1:])) != merged


def test_repsum_copies_and_pickles_are_equal_repsums():
    rep = parse_rep("2*F@1 + Sym(3)@2 + F@1*F@2", "SL2n", 2)
    for other in (copy.deepcopy(rep), pickle.loads(pickle.dumps(rep))):
        assert other == rep and hash(other) == hash(rep)
        assert dict(other.counts) == dict(rep.counts)


def test_changing_the_irreps_counter_leaves_the_repsum_unchanged():
    """A dict copied from ``counts`` may change; ``counts`` itself is
    read-only."""
    rep = sl2n_rep(2, [fundamental(2, 1), (fundamental(2, 1, 2), 2)])
    before = (rep.summands, dict(rep.counts), hash(rep))
    counter = dict(rep.counts)
    counter[fundamental(2, 1)] += 5
    counter[fundamental(2, 2)] = 1
    del counter[fundamental(2, 1, 2)]
    assert (rep.summands, dict(rep.counts), hash(rep)) == before
    with pytest.raises(TypeError):
        rep.counts[fundamental(2, 1)] = 3


@pytest.mark.parametrize("make", [
    lambda: sl2n_rep(1, [(SL2nIrrep((1,)), 1.5)]),
    lambda: sl2n_rep(1, [(SL2nIrrep((1,)), True)]),
    lambda: n_rep([(NIrrep(RHO, 1), 2.0)]),
], ids=["float", "bool", "integral-float"])
def test_repsum_multiplicities_are_integers(make):
    """A multiplicity that is not an int, or is a bool, is BadParameters:
    1.5 used to give rank 3.0 and an untyped TypeError in euler_rep."""
    with pytest.raises(BadParameters, match="multiplicities must be integers >= 1"):
        make()


@pytest.mark.parametrize("n, indices", [(2, (3,)), (2, (0,)), (2, (1, 1)), (2, ()),
                                        (3, (1, 4)), (3, (2, 1, 2)), (0, (1,))])
def test_fundamental_rejects_bad_factor_indices(n, indices):
    """An index outside 1..n, a repeated index or no index is BadParameters,
    not an irrep that ignores it."""
    with pytest.raises(BadParameters, match=r"^need distinct factor indices in 1\.\."):
        fundamental(n, *indices)


def test_fundamental_is_one_irrep_per_index_set():
    assert fundamental(3, 2) == SL2nIrrep((0, 1, 0))
    assert fundamental(3, 3, 1) is fundamental(3, 3, 1) == SL2nIrrep((1, 0, 1))


@pytest.mark.parametrize("exponents", [(-1,), (1, -3), (1.0,), (True, 0), ("1",)], ids=str)
def test_sl2n_irrep_exponents_are_integers_at_least_zero(exponents):
    """A negative or non-integer exponent is BadParameters, as rho(m) with
    m < 1 is; it used to give a rank-0 class <1>."""
    with pytest.raises(BadParameters, match=r"^Sym exponents must be integers >= 0"):
        SL2nIrrep(exponents)


def test_generic_square_cache_is_keyed_by_field_and_keeps_no_error():
    """generic_euler is memoized per (rep, field): one RepSum gets the square
    of its own field each time, equal to an uncached Whitney square, and a
    shape with no closed form raises on every call, not only the first."""
    rep = sl2n_rep(2, [fundamental(2, 1, 2)])
    for field in (Q, F.finite_prime(7), F.quad_ext(Q, 2)):
        got = generic_euler(rep, field)
        assert got.pres.field == field
        assert got == witt_image(whitney(rep.summands, integral_bsl2n(2, field), 2))
    bad = parse_rep("Sym(2)@1*Sym(1)@2", "SL2n", 2)
    for _ in range(2):
        with pytest.raises(UnsupportedIrrep):
            generic_euler(bad, Q)


@pytest.mark.parametrize(
    "field", [Q, F.reals(), F.finite_prime(7), F.finite_prime(13)], ids=str
)
def test_sl2n_euler_over_z_equals_the_witt_product(field):
    """SL2n classes are multiplied out over Z and mapped into W(k) once; the
    reference multiplies the factors one by one in W(k)[e_1..e_n]."""
    rng = random.Random(f"sl2n-euler-{field}")
    for _ in range(15):
        n = rng.randint(1, 3)
        pres = bsl2n(n, field)
        e = [gen(pres, f"e{i}") for i in range(1, n + 1)]
        summands, want = [], one_elem(pres)
        for _ in range(rng.randint(1, 3)):
            i, mult = rng.randrange(n), rng.randint(1, 2)
            if n > 1 and rng.random() < 0.5:
                j = rng.choice([k for k in range(n) if k != i])
                exps = tuple(1 if k in (i, j) else 0 for k in range(n))
                a, b = min(i, j), max(i, j)
                factor = e[a] * e[a] - e[b] * e[b]
            else:
                m = rng.choice([1, 2, 3, 5])
                exps = tuple(m if k == i else 0 for k in range(n))
                if m % 2 == 0:
                    factor = zero_elem(pres)
                elif m == 1:
                    factor = e[i]
                else:
                    factor = from_int(pres, double_factorial(m)) * e[i] ** ((m + 1) // 2)
            summands.append((exps, mult))
            for _ in range(mult):
                want = want * factor
        rep = sl2n_rep(n, summands)
        val = euler_rep(rep, field)
        assert val.value.pres == pres and val.known_square.pres == pres
        assert all(isinstance(c, WittClass) for c in val.value.coeffs.values())
        assert val.value == want
        assert val.known_square == want * want
        assert generic_euler(rep, field) == (zero_elem(pres) if rep.rank % 2 else want * want)


@pytest.mark.parametrize(
    "field", [Q, F.reals(), F.finite_prime(7), F.finite_prime(13)], ids=str
)
def test_n_euler_closed_form_equals_the_witt_product(field):
    """The N-group class is c*e^K with its square c^2*e^(2K); the reference
    multiplies the summands' classes +-m*e and squares m^2*e^2 one by one in
    W(k)[x,e]/(x^2 - 1, (1 + x)e)."""
    rng = random.Random(f"n-euler-{field}")
    pres = bnn(1, field)
    e = gen(pres, "e")
    for _ in range(40):
        summands = []
        for _ in range(rng.randint(0, 4)):
            m = rng.randint(1, 6)
            irrep = NIrrep(RHO, m) if rng.random() < 0.9 else NIrrep(rng.choice([RHO0, RHO0_MINUS]))
            summands.append((irrep, rng.randint(1, 3)))
        rep = n_rep(summands)
        val = euler_rep(rep, field)
        if any(irrep.tag != RHO for irrep, _ in summands):
            assert val.value.is_zero() and val.known_square.is_zero()
            assert val.determinacy == EXACT
            continue
        value, square, odd_counts = one_elem(pres), one_elem(pres), {}
        for irrep, mult in summands:
            m = irrep.m
            odd_counts[m] = (odd_counts.get(m, 0) + mult) % 2
            value = value * (from_int(pres, m) * e) ** mult
            square = square * (from_int(pres, m * m) * e * e) ** mult
        assert val.known_square == square
        if any(k and m % 2 == 0 for m, k in odd_counts.items()):
            assert val.determinacy == SQUARE_ONLY and val.value is None
        else:
            want = UP_TO_SIGN if any(odd_counts.values()) else EXACT
            assert val.determinacy == want
            assert val.value == value
