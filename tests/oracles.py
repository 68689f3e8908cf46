"""Independent reference implementations used to cross-check the package.

The finite-field oracle decides Witt equivalence of diagonal forms by
explicit isotropic-vector search and hyperbolic splitting, using only
hand-rolled modular linear algebra.  The naive presented-ring oracle
multiplies monomials by literal relation rewriting.  Products of Witt
classes are summed over the pairs of counted terms, and the first residue
at an odd prime is read from the entries of even valuation.  The W(Q) key
kernels keep their first forms: a key by valuation loops, a product that
rescans the other key per residue prime, and a representative re-keyed at
each prime.  The W(Q(sqrt a))
references cancel hyperbolic pairs by a pairwise search and show a class
nonzero by rank parity, signatures and the two transfers to W(Q).  The
W(Q(sqrt a)) kernels that run in integer coordinates have their Fraction
formulas here: normalization (``clear_rational_squares``), the square test,
the Z[sqrt d] scaling, the trace-form entries and the real sign.
The W(k) division reference collects the verified quotients of a candidate
search (every class over F_p, every solution of t*q = c over Q).  The local
base-change kernel reference decides membership in <1,-a>*W(Q_v) by
enumerating multipliers, and the Hasse invariant reference multiplies the
Hilbert symbols of all pairs of entries.  Witt-triviality over Q_p at odd p
has a reference by discriminant and Hasse invariant, against which
Springer's theorem in the package is checked.  ``residue_by_evaluation``
sums the fractions of a localization problem at random integer points,
from the closed forms of the Euler classes, with no ring arithmetic.
``n_verdict_by_closed_forms`` runs the N-component checks on the Euler
class polynomials c*e^K and c^2*e^(2K), then sums the fractions over the
product of all denominators.  ``twisted_pullback`` is pi^* from BN to a
twisted point, against which the projection formula is checked.
"""

import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement, groupby, product

from wittloc import fields as F
from wittloc import places
from wittloc.engine import exact_divide, push_to_base
from wittloc.errors import BadParameters, NonInvertibleNormalEuler
from wittloc.euler import RHO, RepSum, SL2nIrrep
from wittloc.rings import bnn, bsl2n, e_monomial, localize_element, one_elem, sum_elements


def _inv(x, p):
    return pow(x % p, p - 2, p)


def _eval(gram, v, w, p):
    n = len(gram)
    return sum(gram[i][j] * v[i] * w[j] for i in range(n) for j in range(n)) % p


def _find_isotropic(gram, p):
    """A nonzero vector v with v^T G v = 0, or None.

    For rank >= 3 it suffices to search the span of the first three basis
    vectors: if the restricted 3x3 block is singular its kernel vector is
    isotropic, and a nondegenerate ternary form over F_p always is.
    """
    n = len(gram)
    if n == 0:
        return None
    k = min(n, 3)
    for coords in product(range(p), repeat=k):
        if not any(coords):
            continue
        v = list(coords) + [0] * (n - k)
        if _eval(gram, v, v, p) == 0:
            return v
    return None


def _split_hyperbolic(gram, p, v):
    """Gram matrix of the orthogonal complement of a hyperbolic plane
    through the isotropic vector v."""
    n = len(gram)
    u = None
    for i in range(n):
        cand = [1 if j == i else 0 for j in range(n)]
        if _eval(gram, v, cand, p) != 0:
            u = cand
            break
    assert u is not None, "form must be nondegenerate"
    c = _eval(gram, v, u, p)
    quu = _eval(gram, u, u, p)
    # project the standard basis onto the complement of span(v, u)
    cinv = _inv(c, p)
    projected = []
    for i in range(n):
        w = [1 if j == i else 0 for j in range(n)]
        bvw = _eval(gram, v, w, p)
        buw = _eval(gram, u, w, p)
        # lambda, mu solve the 2x2 system for the span(v,u) component
        lam = (buw - quu * bvw * cinv) * cinv % p
        mu = bvw * cinv % p
        w2 = [(w[j] - lam * v[j] - mu * u[j]) % p for j in range(n)]
        projected.append(w2)
    basis = _row_reduce_basis(projected, p)
    m = len(basis)
    assert m == n - 2
    return [[_eval(gram, basis[i], basis[j], p) for j in range(m)] for i in range(m)]


def _row_reduce_basis(rows, p):
    basis = []
    pivots = []
    for row in rows:
        r = row[:]
        for b, c in zip(basis, pivots):
            if r[c] % p:
                f = r[c] * _inv(b[c], p) % p
                r = [(x - f * y) % p for x, y in zip(r, b)]
        for c, x in enumerate(r):
            if x % p:
                basis.append(r)
                pivots.append(c)
                break
    return basis


def fp_witt_trivial(entries, p):
    """Whether the diagonal form with the given unit entries is hyperbolic."""
    gram = [[entries[i] % p if i == j else 0 for j in range(len(entries))] for i in range(len(entries))]
    while gram:
        v = _find_isotropic(gram, p)
        if v is None:
            return False
        gram = _split_hyperbolic(gram, p, v)
    return True


def fp_witt_equivalent(e1, e2, p):
    """Witt equivalence via triviality of the difference form."""
    return fp_witt_trivial(list(e1) + [(-c) % p for c in e2], p)


# ---------------------------------------------------------------------------
# naive presented-ring arithmetic: W(k)[x, e] / (x^2 - 1, (1 + x) e)


def bn_naive_reduce(terms):
    """Rewrite {(x_exp, e_exp): coeff} to the normal form where x^2 -> 1
    and x*e^m -> -e^m for m >= 1."""
    out = {}
    for (a, m), c in terms.items():
        a %= 2
        if a and m:
            a, c = 0, -c
        key = (a, m)
        out[key] = out[key] + c if key in out else c
    return {k: c for k, c in out.items() if not c.is_zero()}


def bn_naive_mul(t1, t2):
    prod_terms = {}
    for (a1, m1), c1 in t1.items():
        for (a2, m2), c2 in t2.items():
            key = (a1 + a2, m1 + m2)
            c = c1 * c2
            prod_terms[key] = prod_terms[key] + c if key in prod_terms else c
    return bn_naive_reduce(prod_terms)


def bn_naive_add(t1, t2):
    out = dict(t1)
    for k, c in t2.items():
        out[k] = out[k] + c if k in out else c
    return bn_naive_reduce(out)


# ---------------------------------------------------------------------------
# W(k) products and first residues through the counted representative


def witt_product_by_terms(x, y):
    """x*y as the sum of n*m<c*d> over the pairs of (entry, count) terms of
    x and y, one canonicalization per distinct count."""
    from wittloc.witt import WittClass, zero_class

    by_count = {}
    for c, n in x.terms:
        for d, m in y.terms:
            by_count.setdefault(n * m, []).append(F.mul(x.field, c, d))
    total = zero_class(x.field)
    for n, entries in by_count.items():
        total = total + n * WittClass.from_entries(x.field, entries)
    return total


def first_residue_by_terms(terms, p):
    """The first residue at the odd prime p of sum n*<c> over rational
    (entry, count) terms: the W(F_p) class of the unit parts mod p of the
    entries of even valuation, each square or not by Euler's criterion."""
    units = ((pow(places.unit_part_mod_p(c, p), (p - 1) // 2, p) == 1, n)
             for c, n in terms if places.vp(c, p) % 2 == 0)
    return places.wf_units(units, p % 4 == 1)


# ---------------------------------------------------------------------------
# W(Q) key kernels as first written: valuations by division loops, a first
# residue that rescans the key, and a representative re-keyed at each prime


def wq_key_by_valuations(entries):
    """The W(Q) key of the diagonal form <entries>: the signature, the
    second residue at each odd prime of odd valuation from the unit part mod
    p (``places.unit_part_mod_p``, by division loops and a modular inverse),
    and the dyadic parity."""
    sig = dy = 0
    residues = {}
    for c in entries:
        c = Fraction(c)
        sig += 1 if c > 0 else -1
        for q in places._odd_primes(c.numerator) + places._odd_primes(c.denominator):
            if q == 2:
                dy ^= 1
                continue
            u = places.unit_part_mod_p(c, q)
            residues.setdefault(q, []).append((F._legendre(u, q) == 1, 1))
    classes = ((q, places.wf_units(units, q % 4 == 1)) for q, units in residues.items())
    return (sig, tuple(sorted((q, c) for q, c in classes if c != places.WF_ZERO)), dy)


def wq_first_residue(k, p):
    """The first residue s_p of the class of k at the odd prime p, in
    W(F_p), read off the key by a scan of all its residues: with a, b the
    rank parities of the unimodular parts s and d of x = s + <p>*d over Q_p,
    D = (-1)^(ab) p^b d+-(s) d+-(d) up to squares, and D is (-1)^(sig(sig-1)/2)
    2^dyadic times the primes whose residue has odd rank."""
    sig, residues, dy = k
    b, square = next((c for q, c in residues if q == p), places.WF_ZERO)
    a = (sig - b) % 2
    u = (-1) ** ((sig * (sig - 1) // 2 + a * b) % 2) * 2 ** dy
    for q, (r2, _) in residues:
        if r2 and q != p:
            u = u * q % p
    return (a, (F._legendre(u, p) == 1) == square)


def wq_key_mul_by_rescans(k1, k2):
    """The product key, each first residue from ``wq_first_residue``, which
    rescans the other key once per residue prime."""
    (sig1, res1, dy1), (sig2, res2, dy2) = k1, k2
    residues = {}
    for res, other in ((res1, k2), (res2, k1)):
        for p, d in res:
            c = places.wf_mul(d, wq_first_residue(other, p))
            residues[p] = places.wf_add(residues.get(p, places.WF_ZERO), c, p % 4 == 1)
    items = tuple(sorted((q, c) for q, c in residues.items() if c != places.WF_ZERO))
    return (sig1 * sig2, items, (dy1 * sig2 + sig1 * dy2) % 2)


def rationals_by_rekeying(key):
    """The counted representative of a W(Q) key: the largest unmet prime's
    entries first, the unmet key re-made from the whole key at each prime
    (``wq_key_by_valuations``), then <2> and +-<1>."""
    out = []
    unmet = key
    while unmet[1]:
        p, (r2, square) = unmet[1][-1]
        s = F.least_nonresidue(p)
        if r2 == 1:
            new = (Fraction((1 if square else s) * p),)
        else:
            new = (Fraction(p), Fraction((s if p % 4 == 1 else 1) * p))
        out += new
        unmet = places.wq_key_add(unmet, places.wq_key_neg(wq_key_by_valuations(new)))
    if unmet[2]:
        out.append(Fraction(2))
    runs = [(c, len(list(g))) for c, g in groupby(out)]
    t = unmet[0] - unmet[2]
    return tuple(runs) + (((Fraction(1 if t > 0 else -1), abs(t)),) if t else ())


# ---------------------------------------------------------------------------
# W(Q(sqrt a)) entries by brute force: pairwise cancellation


def clear_rational_squares(c):
    """c = u + v*sqrt(a) scaled by a rational square to integral u, v with
    no common square factor, in Fractions (u*L^2 and v*L^2, L the lcm of
    the denominators) and by trial division: the reference of
    ``witt._normalize_qext_entry``."""
    u, v = c
    L = math.lcm(u.denominator, v.denominator)
    ui = int(u * L * L)
    vi = int(v * L * L)
    k = 2
    while k * k <= math.gcd(ui, vi):
        while ui % (k * k) == 0 and vi % (k * k) == 0:
            ui //= k * k
            vi //= k * k
        k += 1
    return (Fraction(ui), Fraction(vi))


def qext_reduce_pairwise(field, entries):
    """Entries cleared of rational square factors; repeatedly delete the
    first pair (i, j) with -c_i/c_j a square; sort."""
    work = [clear_rational_squares(c) for c in entries]
    changed = True
    while changed:
        changed = False
        n = len(work)
        for i in range(n):
            for j in range(i + 1, n):
                if F.is_square(field, F.div(field, F.neg(field, work[i]), work[j])):
                    del work[j]
                    del work[i]
                    changed = True
                    break
            if changed:
                break
    work.sort(key=lambda c: (c[1] != 0, c[0], c[1]))
    return tuple(work)


def sign_at_root(c, a, root):
    """Sign of u + v*sqrt(a) when sqrt(a) goes to root*|sqrt(a)|, a > 0,
    comparing u^2 with a*v^2 in Fractions: the reference of
    ``fields.real_sign``."""
    u, v = c[0], c[1] * root
    if v == 0 or (u > 0) == (v > 0) or u == 0:
        return (u > 0) - (u < 0) or (v > 0) - (v < 0)
    big = u if u * u > a * v * v else v
    return (big > 0) - (big < 0)


def is_square_qext_by_fractions(a, x):
    """Whether x = u + v*sqrt(a) is a square in Q(sqrt a), in Fractions: a
    rational u is one iff u or u/a is a rational square; else the norm
    must be a square w^2 and (u +- w)/2 a rational square for one sign."""
    u, v = Fraction(x[0]), Fraction(x[1])
    if v == 0:
        return F._is_square_fraction(u) or F._is_square_fraction(u / a)
    w = F._fraction_square_root(u * u - a * v * v)
    return w is not None and any(F._is_square_fraction((u + e) / 2) for e in (w, -w))


def z_sqrt_d_by_fractions(a, u, v):
    """u + v*sqrt(a) = u + v*f*sqrt(d), a = d*f^2 with d squarefree, scaled
    by L^2, L the denominator of the Fraction v*f, into Z[sqrt d]: the
    reference of ``places.z_sqrt_d``."""
    a = Fraction(a)
    d = places.squarefree_part(a)
    f = F._fraction_square_root(a / d)
    L2 = (v * f).denominator ** 2
    return u * L2, int(v * f * L2)


def trace_form_entries_by_fractions(c, base, a):
    """<2*c0, 2*a*c0*N(c)>, or <1, -1> when c0 = 0, in the base field's own
    arithmetic (Fractions over Q): the reference of
    ``witt.trace_form_entries``."""
    c0, c1 = c
    one = F.one(base)
    if F.is_zero(base, c0):
        return (one, F.neg(base, one))
    two = F.coerce(base, 2)
    norm = F.sub(base, F.mul(base, c0, c0), F.mul(base, a, F.mul(base, c1, c1)))
    return (F.mul(base, two, c0), F.mul(base, F.mul(base, two, a), F.mul(base, c0, norm)))


def qext_nonzero_by_invariants(x):
    """True when rank parity, a real signature or one of the transfers
    Tr(x), Tr(<sqrt a>*x) to W(Q) shows the W(Q(sqrt a)) class x nonzero,
    else None: sound, not complete.  Each trace form is diagonalized from
    its Gram matrix on the basis {1, sqrt a}."""
    from wittloc.witt import WittClass, diagonalize, zero_class

    Q = x.field.base
    a = x.field.a
    if sum(n for _, n in x.terms) % 2:
        return True
    if a > 0 and any(sum(n * sign_at_root(c, a, root) for c, n in x.terms) for root in (1, -1)):
        return True
    for s0, s1 in ((1, 0), (0, 1)):
        total = zero_class(Q)
        for (u, v), n in x.terms:
            c0, c1 = s0 * u + a * s1 * v, s0 * v + s1 * u
            gram = [[2 * c0, 2 * a * c1], [2 * a * c1, 2 * a * c0]]
            total = total + n * WittClass.from_entries(Q, diagonalize(gram, Q))
        if not total.is_zero():
            return True
    return None


# ---------------------------------------------------------------------------
# W(k) coefficient division by candidate search


def witt_divide_candidates(c, d):
    """Verified candidates q with q*d == c: every class over F_p; the
    signature quotient over R; over the other fields the guesses c*<u> for
    the entries u of d, c, -c, <1> over Q(sqrt a), and over Q every solution
    of t*q = c when d = t<1>.  Complete over Q, R and the finite fields, not
    over Q(sqrt a)."""
    from wittloc.quadext import all_witt_classes
    from wittloc.witt import WittClass, integer_class

    field = c.field
    out = []

    def push(q):
        if q not in out and q * d == c:
            out.append(q)

    if field.kind == F.FINITE_PRIME:
        for q in all_witt_classes(field):
            push(q)
        return out
    if field.kind == F.REALS:
        (t,), (s,) = d.signatures(), c.signatures()
        if t != 0 and s % t == 0:
            push(integer_class(s // t, field))
        return out
    for u in d.entries:
        push(c * WittClass.from_entries(field, (u,)))
    push(c)
    push(-c)
    if field.kind == F.QUAD_EXT and field.base.kind == F.RATIONALS:
        push(integer_class(1, field))
    if field.kind == F.RATIONALS:
        t = d.integer_value()
        if t is not None:
            for q in rational_divide_by_int(c, t):
                push(q)
    return out


def rational_divide_by_int(c, t):
    """All solutions q of t*q = c in W(Q), via the residue decomposition:
    one per choice of a solution at every prime and of the dyadic slot."""
    from wittloc.quadext import all_witt_classes
    from wittloc.witt import WittClass

    sig, items, dy = c.key
    if t == 0 or sig % t or (t % 2 == 0 and dy):
        return []
    per_prime = []
    for p, cls in items:
        fp = F.finite_prime(p)
        sols = [(p, w.key) for w in all_witt_classes(fp) if (t * w).key == cls]
        if not sols:
            return []
        per_prime.append(sols)
    dys = [dy] if t % 2 else [0, 1]
    results = []
    for combo in product(*per_prime):
        items_q = tuple(sorted((p, w) for p, w in combo if w != places.WF_ZERO))
        for dq in dys:
            q = WittClass(c.field, (sig // t, items_q, dq))
            if t * q == c:
                results.append(q)
    return results


def witt_quotient_reference(c, t):
    """The q with t*q = c for t odd (any t != 0 over R), or None: the
    field-by-field closed form z + r*(c - t*z), r = t mod 8 in {+-1, +-3},
    with z of signature sig(c)/t at every ordering and z itself over R."""
    from wittloc.quadext import sqrt_a_class
    from wittloc.witt import integer_class, zero_class

    field = c.field
    one = integer_class(1, field)
    if field.kind in (F.RATIONALS, F.REALS):
        (s,) = c.signatures()
        if s % t:
            return None
        z = s // t * one
        if field.kind == F.REALS:
            return z
    elif field.kind == F.QUAD_EXT and field.base.kind == F.RATIONALS and field.a > 0:
        sp, sm = c.signatures()
        if sp % t or sm % t:
            return None
        z = (sp + sm) // (2 * t) * one + (sp - sm) // (2 * t) * sqrt_a_class(field)
    else:
        z = zero_class(field)  # k has no ordering: W(k) is torsion
    r = (t + 3) % 8 - 3
    return z + r * (c - t * z)


# ---------------------------------------------------------------------------
# the local base-change kernel <1,-a>*W(Q_v) by multiplier enumeration


def hasse_invariant_pairwise(entries, v):
    """prod_{i<j} (a_i, a_j)_v over all pairs of entries."""
    h = 1
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            h *= places.hilbert(entries[i], entries[j], v)
    return h


def local_witt_zero_by_hasse(terms, p):
    """Witt-triviality over Q_p, p odd, of sum n*<c> over (entry, count)
    terms by invariants: as 8<1> = 0 in W(Q_p), the form with counts taken
    mod 8 has even rank, square signed discriminant and the Hasse invariant
    of a hyperbolic form."""
    if sum(n for _, n in terms) % 2:
        return False
    terms = tuple((c, n % 8) for c, n in terms)
    if not places.is_square_qv(places.signed_disc(terms), p):
        return False
    entries = tuple(c for c, n in terms for _ in range(n))
    hyp = tuple([Fraction(1), Fraction(-1)] * (len(entries) // 2))
    return places.hasse_invariant(entries, p) == places.hasse_invariant(hyp, p)


def _local_square_class_reps(v):
    if v == 2:
        return [Fraction(c) for c in (1, 3, 5, 7, 2, 6, 10, 14)]
    s = F.least_nonresidue(v)
    return [Fraction(c) for c in (1, s, v, s * v)]


def local_in_ideal_by_enumeration(entries, a, v):
    """Whether the class lies in <1,-a>*W(Q_v), by enumerating multipliers.

    Every Witt class of W(Q_v) has a diagonal representative of rank <= 4
    with entries among fixed square-class representatives, so the
    enumeration is exhaustive.
    """
    reps = _local_square_class_reps(v)
    negated = tuple(-c for c in entries)
    for r in range(0, 5):
        for y in combinations_with_replacement(reps, r):
            prod = []
            for c in y:
                prod.append(c)
                prod.append(-a * c)
            if places.local_witt_zero(tuple((c, 1) for c in tuple(prod) + negated), v):
                return True
    return False


# ---------------------------------------------------------------------------
# Bott residues by evaluation at points


def _irrep_value(irrep, point):
    """e(irrep) at point, from the closed forms: m!!*e_i^((m+1)/2) for
    Sym^m F_i with m odd, e_i^2 - e_j^2 for F_i (x) F_j with i < j, 0 when
    every exponent is even; m*e for rho(m), 0 for rho0 and rho0-."""
    if not isinstance(irrep, SL2nIrrep):
        return irrep.m * point[0]
    odd = [(i, m) for i, m in enumerate(irrep.exponents) if m % 2]
    if not odd:
        return 0
    if len(odd) == 1 and sum(irrep.exponents) == odd[0][1]:
        i, m = odd[0]
        return math.prod(range(m, 0, -2)) * point[i] ** ((m + 1) // 2)
    if len(odd) == 2 and sum(irrep.exponents) == 2:
        (i, _), (j, _) = odd
        return point[i] ** 2 - point[j] ** 2
    raise ValueError(f"no closed form for {irrep}")


def _class_value(x, point):
    """A RepSum's Euler class at point, as the product over its summands; a
    ring expression over Q read term by term, each coefficient an integer
    and each e_i point[i]."""
    if isinstance(x, RepSum):
        return math.prod(_irrep_value(irrep, point) ** k for irrep, k in x.summands)
    if x.pres.kind != "BSL2n" or x.pres.field.kind != F.RATIONALS:
        raise ValueError(f"only ring expressions over BSL2n/Q are read, not {x.pres}")
    total = 0
    for key, c in x.coeffs.items():
        t = c.integer_value()
        if t is None:
            raise ValueError(f"coefficient {c} is not an integer")
        total += t * math.prod(v ** k for v, k in zip(point, key))
    return total


def residue_by_evaluation(problem, points=3, seed=0):
    """Sum over the components of e(restricted)/e(normal), evaluated in
    Fraction at ``points`` seeded random integer points where no
    denominator vanishes (nonzero e_i of distinct absolute values); the
    common value, or AssertionError when the points disagree.

    Agreement at a few points does not prove that the fractions sum to a
    polynomial: only the Bott residue theorem or an exact division says so.
    So this checks only sums that cleared, whose degree-0 answer is the
    value here.  Components must be rational points; a ring-expression
    numerator must be over Q with integer coefficients."""
    rng = random.Random(seed)
    n = problem.group.n
    values = set()
    for _ in range(points):
        point = rng.sample(range(1, 1000), n)
        total = Fraction(0)
        for c in problem.components:
            if c.residue != "rational":
                raise ValueError(f"component {c.id} is not a rational point")
            total += Fraction(_class_value(c.restricted, point), _class_value(c.normal_rep, point))
        values.add(total)
    assert len(values) == 1, f"the fractions sum to no constant: {sorted(values)}"
    return values.pop()


# ---------------------------------------------------------------------------
# N-group verdicts from the Euler class polynomials


def _n_euler_polynomials(rep, field):
    """(e(rep) or None, e(rep)^2) in BN: with k_m summands rho(m), c*e^K and
    c^2*e^(2K) for c = prod m^(k_m) and K = sum k_m, 0 with a rho0 or rho0-;
    the value is None when an even m comes an odd number of times."""
    pres = bnn(1, field)
    if any(irrep.tag != RHO for irrep, _ in rep.summands):
        return e_monomial(pres, 0), e_monomial(pres, 0)
    c = math.prod(irrep.m ** k for irrep, k in rep.summands)
    K = sum(k for _, k in rep.summands)
    square = e_monomial(pres, c * c, e=2 * K)
    if any(irrep.m % 2 == 0 and k % 2 for irrep, k in rep.summands):
        return None, square
    return e_monomial(pres, c, e=K), square


def n_verdict_by_closed_forms(problem):
    """(exception type, message) for the first component of an N problem
    that fails a check, else ``degree_zero``: the constant the fractions
    e(restricted)/e(normal) sum to, or None when they sum to no polynomial.

    The checks, in order: the square of the normal class is 0; the normal
    class is known only by its square; over a field other than R, it leads
    with an even integer; a restricted RepSum is known only by its square.
    The fractions are summed over the product of all normal classes, with
    no irrep cancelled, and divided by it once."""
    field = problem.group.field
    carrier = bsl2n(1, field)
    nums, dens = [], []
    for c in problem.components:
        value, square = _n_euler_polynomials(c.normal_rep, field)
        where = f"component {c.id}: "
        if square.is_zero():
            return NonInvertibleNormalEuler, where + "generic Euler class of the normal bundle vanishes"
        if value is None:
            return NonInvertibleNormalEuler, where + "normal Euler class has no invertible representative"
        if field.kind != F.REALS and any(irrep.m % 2 == 0 for irrep, _ in c.normal_rep.summands):
            return BadParameters, where + "the normal class leads with an even integer"
        r = c.restricted
        if isinstance(r, RepSum):
            r = _n_euler_polynomials(r, field)[0]
            if r is None:
                return NonInvertibleNormalEuler, where + "restricted class only known by its square"
        nums.append(localize_element(push_to_base(r, c), carrier))
        dens.append(localize_element(value, carrier))
    total = sum_elements(carrier, [
        num * math.prod(dens[:i] + dens[i + 1:], start=one_elem(carrier))
        for i, num in enumerate(nums)])
    cleared = exact_divide(total, math.prod(dens, start=one_elem(carrier)))
    if cleared is None or not (cleared.is_zero() or cleared.degree() == 0):
        return None
    return cleared.constant_coefficient()


def twisted_pullback(b, tp):
    """pi^* from BN over k to the twisted point tp over k(sqrt a): x maps to
    the scalar <a>, e to e, one monomial at a time."""
    from wittloc.witt import WittClass

    a_cls = WittClass.from_entries(tp.field, (tp.ctx.a,))
    return sum_elements(tp, [e_monomial(tp, c * a_cls if x else c, e=m)
                             for (x, m), c in b.coeffs.items()])
