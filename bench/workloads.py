"""The three benchmark workloads: seeded inputs, one call per operation, and
checks that do not trust the code under test.

Each workload hands out its operations in rounds.  The runner executes whole
rounds, so a run always covers a whole number of rounds: for ``sl2n-ladder``
a round is one seed-shuffled pass over the ladder, which keeps the mix of
cheap and expensive problems the same from run to run.

Every operation ends in one of three verdicts from ``check``:

* ``ok``: the answer is certified and agrees with a value computed here;
* ``undecided``: wittloc gave no certified answer, either a typed
  ``Undecided`` or a residue whose denominator did not clear;
* ``fail: ...``: a wrong answer, an untyped exception, or an unexpected
  typed error.

The library is reached only through ``wittloc`` module attributes looked up
at call time, so the traced run can wrap them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb
from typing import Dict, List, Tuple

import oracle

OK = "ok"
UNDECIDED = "undecided"

VALUE = "value"
TYPED = "typed"
ERROR = "error"


def _fail(why: str) -> str:
    return "fail: " + why


def _nonresidues(p: int) -> List[int]:
    return [u for u in range(2, p) if oracle.legendre(u, p) == -1]


class Workload:
    """Base class: ``next_round`` makes inputs, ``execute`` calls wittloc,
    ``check`` judges one outcome (``kind`` is VALUE, TYPED or ERROR)."""

    name = ""
    min_rounds = 1  # a run does at least this many rounds; peak RSS is read then
    # op_tail_ms percentile: the highest with at least 10 samples beyond it
    # in a run at the seed
    tail_pct = 99.0

    def __init__(self, wl, seed: int):
        self.W = wl
        self.rng = random.Random(f"{self.name}:{seed}")

    def next_round(self) -> List[tuple]:
        raise NotImplementedError

    def execute(self, op):
        raise NotImplementedError

    def check(self, op, kind: str, value) -> str:
        raise NotImplementedError

    def summary(self, op, value) -> str:
        """Representation-independent text of a certified answer."""
        raise NotImplementedError

    def deferred_checks(self) -> List[Tuple[str, str]]:
        """Run the checks that ``check`` put off because they call wittloc
        themselves, and forget them; for each failed check, the verdict
        ``check`` gave (OK or UNDECIDED) and the failure.  The runner calls
        this after the measured rounds, so that checking work is neither
        timed nor warms the caches that timed operations see."""
        return []

    def reference_ops(self) -> List[tuple]:
        """The checksum's operations; called on an instance made with seed 0."""
        return self.next_round()[:24]

    def _typed(self, value) -> str:
        if type(value).__name__ == "Undecided":
            return UNDECIDED
        return _fail(f"unexpected {type(value).__name__}: {value}")


# ---------------------------------------------------------------------------
# sl2n-ladder


def closed_form(kind: str, m: int, N: int) -> int:
    """chi of the real Grassmannian Gr(m, N): the paper's C(n, r) or 0."""
    if kind == "P":
        m, N = 1, m + 1
    if m * (N - m) % 2:
        return 0
    return comb(N // 2, m // 2)


def ladder() -> List[tuple]:
    """(kind, dim or m, ambient, n): P^{2n}, P^{2n-1} for n <= 6 and
    Gr(m, 2n), Gr(m, 2n+1) for 2 <= n <= 5, 2 <= m < ambient."""
    out = []
    for n in range(1, 7):
        out += [("P", 2 * n, 2 * n + 1, n), ("P", 2 * n - 1, 2 * n, n)]
    for n in range(2, 6):
        for N in (2 * n, 2 * n + 1):
            out += [("Gr", m, N, n) for m in range(2, N)]
    return out


class Sl2nLadder(Workload):
    name = "sl2n-ladder"
    FIELDS = ("Q", "Fp:7")
    min_rounds = 2
    # in two passes the six Q Grassmannians of n = 5 take the top 12 places;
    # p96 stays inside that group whatever the number of passes
    tail_pct = 96.0

    def __init__(self, wl, seed: int):
        super().__init__(wl, seed)
        self.fields = {tag: wl.parse_field(tag) for tag in self.FIELDS}
        self.problems = [(tag,) + p for tag in self.FIELDS for p in ladder()]

    def next_round(self):
        ops = list(self.problems)
        self.rng.shuffle(ops)
        return ops

    def execute(self, op):
        tag, kind, m, N, n = op
        field = self.fields[tag]
        if kind == "P":
            prob = self.W.build_projective_problem(m, n, field)
        else:
            prob = self.W.build_grassmannian_problem(m, N, n, field)
        return self.W.bott_residue(prob).degree_zero

    def _key(self, tag, entries):
        if tag == "Q":
            return oracle.key_q(entries)
        return oracle.key_fp(entries, 7)

    def check(self, op, kind, value):
        if kind == TYPED:
            return self._typed(value)
        if kind == ERROR:
            return _fail(f"{type(value).__name__}: {value}")
        if value is None:
            return UNDECIDED
        tag, k, m, N, _ = op
        want = closed_form(k, m, N)
        if self._key(tag, value.entries) != self._key(tag, [1] * want):
            return _fail(f"{op}: degree {value!r}, closed form {want}<1>")
        return OK

    def summary(self, op, value):
        return repr(self._key(op[0], value.entries))

    def reference_ops(self):
        small = [p for p in ladder() if p[3] <= 3]
        return [(tag,) + p for tag in self.FIELDS for p in small]


# ---------------------------------------------------------------------------
# witt-mix


class _Arith:
    """Formal diagonal-form arithmetic and invariants for one field, done
    without wittloc: entries are square classes (Q), signs (R), residues
    (F_p) or pairs u + v sqrt(s) (F_{p^2})."""

    def __init__(self, tag: str):
        if tag in ("Q", "R"):
            self.kind, self.p = tag, None
        elif "(" in tag:
            self.kind = "Fq"
            self.p = int(tag[3:tag.index("(")])
            self.s = int(tag[tag.index(":", 3) + 1:-1])
        else:
            self.kind, self.p = "Fp", int(tag[3:])

    def formal(self, c):
        if self.kind == "Q":
            return oracle.sq_class(c)
        if self.kind == "R":
            return 1 if c > 0 else -1
        return c

    def one(self, sign: int):
        if self.kind == "Q":
            return (sign, frozenset())
        if self.kind == "R":
            return sign
        if self.kind == "Fp":
            return sign % self.p
        return (sign % self.p, 0)

    def neg(self, x):
        if self.kind == "Q":
            return oracle.sq_neg(x)
        if self.kind == "R":
            return -x
        if self.kind == "Fp":
            return -x % self.p
        return (-x[0] % self.p, -x[1] % self.p)

    def mul(self, x, y):
        if self.kind == "Q":
            return oracle.sq_mul(x, y)
        if self.kind == "R":
            return x * y
        if self.kind == "Fp":
            return x * y % self.p
        return oracle.fq_mul(x, y, self.s, self.p)

    def key_formal(self, formal) -> Tuple:
        if self.kind == "Q":
            return oracle.key_q_classes(formal)
        if self.kind == "R":
            return ("R", sum(formal))
        if self.kind == "Fp":
            return oracle.key_fp(formal, self.p)
        return oracle.key_fq(formal, self.s, self.p)

    def key(self, entries) -> Tuple:
        """Invariant of a wittloc class from its diagonal entries."""
        if self.kind == "Q":
            return oracle.key_q(entries)
        if self.kind == "R":
            return oracle.key_r(entries)
        if self.kind == "Fp":
            return oracle.key_fp(entries, self.p)
        return oracle.key_fq(entries, self.s, self.p)

    def scalar_text(self, c) -> str:
        if self.kind != "Fq":
            return str(c)
        u, v = c
        if v == 0:
            return str(u)
        return f"{v}*r" if u == 0 else f"{u}+{v}*r"


def formal_eval(ar: _Arith, t) -> list:
    op = t[0]
    if op == "atom":
        return [ar.formal(t[1])]
    if op == "int":
        return [ar.one(1 if t[1] > 0 else -1)] * abs(t[1])
    if op == "neg":
        return [ar.neg(x) for x in formal_eval(ar, t[1])]
    a, b = formal_eval(ar, t[1]), formal_eval(ar, t[2])
    if op == "add":
        return a + b
    if op == "sub":
        return a + [ar.neg(x) for x in b]
    return [ar.mul(x, y) for x in a for y in b]


def render(ar: _Arith, t) -> str:
    op = t[0]
    if op == "atom":
        return f"<{ar.scalar_text(t[1])}>"
    if op == "int":
        return f"({t[1]})"
    if op == "neg":
        return f"-({render(ar, t[1])})"
    sym = {"add": "+", "sub": "-", "mul": "*"}[op]
    return f"({render(ar, t[1])} {sym} {render(ar, t[2])})"


class WittMix(Workload):
    """Random Witt-class expressions over Q, R, F_p and F_{p^2}, each followed
    by a hash lookup or an equality test against classes seen earlier."""

    name = "witt-mix"
    # (field, scalar height, kind): Q half at height 1e2 and half at 1e6;
    # 70 % evaluations with a lookup, 15 % ring laws, 15 % print/parse.
    _FIELDS = [("Q", 10 ** 2)] * 10 + [("Q", 10 ** 6)] * 10 + [("R", 10 ** 2)] * 4 \
        + [("Fp", 0)] * 8 + [("Fq", 0)] * 8
    _KINDS = ["eval"] * 28 + ["law"] * 6 + ["text"] * 6
    min_rounds = 100
    tail_pct = 99.5
    FP = (3, 5, 7, 11, 13)
    FQ = (3, 5, 7)
    HIGH = 10 ** 6
    # Lookups go against the last TABLE classes seen over the same field, so
    # the table, and the memory it holds, does not grow with throughput.
    TABLE = 1000

    def __init__(self, wl, seed: int):
        super().__init__(wl, seed)
        tags = ["Q", "R"] + [f"Fp:{p}" for p in self.FP]
        tags += [f"Fp:{p}(sqrt:{_nonresidues(p)[0]})" for p in self.FQ]
        self.arith = {t: _Arith(t) for t in tags}
        self.fields = {t: wl.parse_field(t) for t in tags}
        self.tables: Dict[str, dict] = {t: {} for t in tags}  # class -> count
        self.seen: Dict[str, list] = {t: [] for t in tags}
        self.oracle_seen: Dict[str, Tuple[list, dict]] = {t: ([], {}) for t in tags}

    # -- inputs -------------------------------------------------------------

    def _scalar(self, ar: _Arith, height: int):
        r = self.rng
        if ar.kind == "Fp":
            return r.randrange(1, ar.p)
        if ar.kind == "Fq":
            while True:
                c = (r.randrange(ar.p), r.randrange(ar.p))
                if c != (0, 0):
                    return c
        sign = r.choice((1, -1))
        if height == self.HIGH:  # fresh integers
            return Fraction(sign * r.randint(1, height))
        return Fraction(sign * r.randint(1, height), r.randint(1, height))

    def _tree(self, ar: _Arith, height: int, depth: int):
        r = self.rng
        if depth == 0 or r.random() < 0.3:
            if r.random() < 0.8:
                return ("atom", self._scalar(ar, height))
            return ("int", r.choice((-2, -1, 1, 2, 3)))
        op = r.choices(("add", "sub", "mul", "neg"), (40, 20, 25, 15))[0]
        if op == "neg":
            return ("neg", self._tree(ar, height, depth - 1))
        return (op, self._tree(ar, height, depth - 1), self._tree(ar, height, depth - 1))

    def next_round(self):
        fields, kinds = list(self._FIELDS), list(self._KINDS)
        self.rng.shuffle(fields)
        self.rng.shuffle(kinds)
        return [self.make_op(f, h, k) for (f, h), k in zip(fields, kinds)]

    def make_op(self, field, height, kind):
        r = self.rng
        if field == "Fp":
            tag = f"Fp:{r.choice(self.FP)}"
        elif field == "Fq":
            p = r.choice(self.FQ)
            tag = f"Fp:{p}(sqrt:{_nonresidues(p)[0]})"
        else:
            tag = field
        ar = self.arith[tag]
        if kind == "law":
            trees = tuple(self._tree(ar, height, 2) for _ in range(3))
            return (kind, tag, trees, self._scalar(ar, height))
        # at height 1e6 a depth-3 tree multiplies up to 10^18-sized entries,
        # whose factorization cost is too erratic to time steadily
        tree = self._tree(ar, height, 2 if height == self.HIGH else 3)
        if kind == "text":
            return (kind, tag, tree, render(ar, tree))
        return (kind, tag, tree, r.random() if r.random() < 0.5 else None)

    # -- execution ----------------------------------------------------------

    def _eval(self, field, t):
        W = self.W
        op = t[0]
        if op == "atom":
            return W.square_class(field, t[1])
        if op == "int":
            return W.integer_class(t[1], field)
        if op == "neg":
            return -self._eval(field, t[1])
        a, b = self._eval(field, t[1]), self._eval(field, t[2])
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        return a * b

    def execute(self, op):
        kind, tag = op[0], op[1]
        field = self.fields[tag]
        if kind == "law":
            x, y, z = (self._eval(field, t) for t in op[2])
            c = self.arith[tag]
            a = self.W.square_class(field, op[3])
            minus_a = self.W.square_class(field, _neg_scalar(c, op[3]))
            return (
                (x + (-x)).is_zero(),
                x * (y + z) == x * y + x * z,
                (a + minus_a).is_zero(),
            )
        if kind == "text":
            x = self.W.parse_witt_expr(op[3], field)
            back = self.W.parse_witt_expr(self.W.witt_str(x), field)
            return x, back
        x = self._eval(field, op[2])
        seen, table = self.seen[tag], self.tables[tag]
        if op[3] is None or not seen:
            found = x in table
        else:
            found = x == seen[int(op[3] * len(seen))]
        _remember(seen, table, x, self.TABLE)
        return x, found

    # -- checks -------------------------------------------------------------

    def check(self, op, kind, value):
        if kind == TYPED:
            return self._typed(value)
        if kind == ERROR:
            return _fail(f"{type(value).__name__}: {value}")
        what, tag = op[0], op[1]
        ar = self.arith[tag]
        if what == "law":
            if value != (True, True, True):
                return _fail(f"ring law broken over {tag}: {value}")
            return OK
        want = ar.key_formal(formal_eval(ar, op[2]))
        x = value[0]
        if what == "eval":
            # done before any verdict, so that this table stays as long as
            # the one execute keeps, which has already stored x
            seen, counts = self.oracle_seen[tag]
            if op[3] is None or not seen:
                expect = want in counts
            else:
                expect = want == seen[int(op[3] * len(seen))]
            _remember(seen, counts, want, self.TABLE)
        if ar.key(x.entries) != want:
            return _fail(f"{op[2]} over {tag} evaluated to {x!r}")
        if what == "text":
            if ar.key(value[1].entries) != want:
                return _fail(f"print/parse round trip of {x!r} gave {value[1]!r}")
            return OK
        if value[1] != expect:
            return _fail(f"lookup of {x!r} over {tag} returned {value[1]}")
        return OK

    def summary(self, op, value):
        if op[0] == "law":
            return repr(value)
        return repr(self.arith[op[1]].key(value[0].entries))


def _remember(seen: list, counts: dict, x, limit: int) -> None:
    """Append ``x`` to the window of the last ``limit`` classes, keeping
    ``counts`` (class -> occurrences in the window) in step."""
    seen.append(x)
    counts[x] = counts.get(x, 0) + 1
    if len(seen) > limit:
        old = seen.pop(0)
        counts[old] -= 1
        if not counts[old]:
            del counts[old]


def _neg_scalar(ar: _Arith, c):
    if ar.kind in ("Q", "R"):
        return -c
    return ar.neg(c)


# ---------------------------------------------------------------------------
# twisted-mix


def trace_form(c, a, p=None) -> list:
    """Diagonal entries over k of (u, v) -> Tr(c u v) on k(sqrt a) with basis
    {1, sqrt a}: Gram [[2c0, 2c1 a], [2c1 a, 2c0 a]]."""
    c0, c1 = c
    if p is None:
        if c0 == 0:
            return [Fraction(1), Fraction(-1)]
        return [2 * c0, 2 * a * (c0 * c0 - a * c1 * c1) / c0]
    if c0 % p == 0:
        return [1, p - 1]
    return [2 * c0 % p, 2 * a * (c0 * c0 - a * c1 * c1) * pow(c0, -1, p) % p]


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def real_sign(c, a, root: int) -> int:
    """Sign of u + v sqrt(a) when sqrt(a) is sent to root * |sqrt(a)|."""
    u, v = c[0], c[1] * root
    if v == 0 or _sign(u) == _sign(v):
        return _sign(u) or _sign(v)
    # opposite signs: the term of larger absolute value wins (u^2 != a v^2)
    return _sign(u) if u * u > a * v * v else _sign(v)


class TwistedMix(Workload):
    """N-group residue problems read from JSON, Lam-triangle checks over
    quadratic extensions, and W(Q(sqrt a)) equality queries."""

    name = "twisted-mix"
    # (kind, base field): 40 % N-group problems, 30 % Lam checks, 30 %
    # W(Q(sqrt a)) equality queries.  Each round holds every slot once, in a
    # seeded order, so the mix is the same in every round and every run.
    ROUND = (("nprob", "Q"),) * 8 + (("nprob", "Fp"),) * 4 + (("lam", "Q"),) * 5 \
        + (("lam", "Fp"),) * 4 + (("eq", "Q"),) * 9
    min_rounds = 20
    tail_pct = 97.0
    A_Q = (2, 3, 5, 6, 7, 10, -1, -2, -3)
    FP = (5, 7, 11, 13)
    BASE_POOL = (1, -1, 2, -2, 3, -3, 5, -5, 7, 10)
    # Normal representations whose Euler class has coefficient at most 9.
    REPS = ("rho(1)", "rho(3)", "rho(5)", "rho(1) + rho(3)", "rho(1) + rho(5)",
            "2*rho(1)", "2*rho(3)")
    # Coefficient 15 lies past the |t| <= 12 integer recognition in
    # engine._small_integer_value, so the residue does not clear.  It is
    # drawn only in one-component problems: with two or more components,
    # exact_divide's backtracking takes over 4 s per problem at the seed.
    REP_15 = "rho(3) + rho(5)"

    def __init__(self, wl, seed: int):
        super().__init__(wl, seed)
        self.qext = {a: wl.quad_ext(wl.rationals(), a) for a in self.A_Q}
        self.pending: List[tuple] = []  # see deferred_checks

    # -- inputs -------------------------------------------------------------

    def _ext_elem(self, h: int = 4, p=None):
        r = self.rng
        while True:
            if p is None:
                c = (Fraction(r.randint(-h, h)), Fraction(r.randint(-h, h)))
            else:
                c = (r.randrange(p), r.randrange(p))
            if c != (0, 0):
                return c

    def _nproblem(self, base):
        r = self.rng
        if base == "Q":
            tag, p, a_pool = "Q", None, self.A_Q
        else:
            p = r.choice(self.FP)
            tag, a_pool = f"Fp:{p}", _nonresidues(p)
        comps = []
        ncomp = r.randint(1, 3)
        for i in range(ncomp):
            reps = self.REPS + (self.REP_15,) if ncomp == 1 else self.REPS
            normal = r.choice(reps)
            restricted = normal
            if normal.startswith("rho(") and "+" not in normal and r.random() < 0.25:
                restricted = f"{normal[4]}*e"  # e(rho(m)) = m e
            comp = {"id": f"c{i}", "normal": normal, "restricted": restricted}
            if r.random() < 0.4:
                comp["residue"] = "rational"
            else:
                comp["residue"] = {"twisted": {"a": str(r.choice(a_pool))}}
            comps.append(comp)
        doc = {"group": {"kind": "N", "n": 1, "field": tag}, "components": comps,
               "invert": {"M": r.randint(1, 3)}}
        permuted = dict(doc, components=r.sample(comps, len(comps)))
        return ("nprob", tag, doc, permuted)

    def _lam(self, base):
        r = self.rng
        if base == "Q":
            p, a = None, r.choice(self.A_Q)
        else:
            p = r.choice(self.FP)
            a = r.choice(_nonresidues(p))
        if r.random() < 0.3:
            entries = [self._ext_elem(3, p) for _ in range(r.randint(1, 2))]
            return ("lam", p, a, "ext", entries)
        if p is None:
            entries = [Fraction(r.choice(self.BASE_POOL)) for _ in range(r.randint(0, 3))]
            if r.random() < 0.5:  # a constructed kernel member (1 - <a>) * form
                entries += [-a * c for c in entries]
        else:
            entries = [r.randrange(1, p) for _ in range(r.randint(0, 3))]
        return ("lam", p, a, "base", entries)

    def _shows_nonzero(self, a, delta) -> bool:
        """Whether a signature or a transfer invariant, computed here, proves
        the class of ``delta`` in W(Q(sqrt a)) nonzero."""
        if len(delta) % 2:
            return True
        if a > 0 and any(sum(real_sign(c, a, s) for c in delta) for s in (1, -1)):
            return True
        for scale in ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))):
            tr = []
            for c in delta:
                sc = (scale[0] * c[0] + a * scale[1] * c[1], scale[0] * c[1] + scale[1] * c[0])
                tr += trace_form(sc, a)
            if oracle.key_q(tr) != oracle.key_q([]):
                return True
        return False

    def _equality(self, base):
        r = self.rng
        a = r.choice(self.A_Q)
        K = _QuadQ(a)
        x = [self._ext_elem() for _ in range(r.randint(1, 3))]
        y = [K.mul(c, K.sq(self._ext_elem(2))) for c in x]
        if r.random() < 0.5:
            h = self._ext_elem()
            y += [K.mul(h, K.sq(self._ext_elem(2))), K.neg(K.mul(h, K.sq(self._ext_elem(2))))]
        r.shuffle(y)
        if len(y) >= 2 and r.random() < 0.5:
            c, d = y[0], y[1]  # binary isometry <c, d> = <c + d, cd(c + d)>
            s = (c[0] + d[0], c[1] + d[1])
            if s != (0, 0):
                y[0:2] = [s, K.mul(K.mul(c, d), s)]
        equal = r.random() < 0.5
        if not equal:
            for _ in range(20):
                delta = [self._ext_elem() for _ in range(2)]
                if self._shows_nonzero(a, delta):
                    break
            else:
                delta = [self._ext_elem()]
            y += delta
        return ("eq", a, x, y, equal)

    def next_round(self):
        slots = list(self.ROUND)
        self.rng.shuffle(slots)
        make = {"nprob": self._nproblem, "lam": self._lam, "eq": self._equality}
        return [make[kind](base) for kind, base in slots]

    # -- execution ----------------------------------------------------------

    def _lam_ctx(self, p, a):
        base = self.W.rationals() if p is None else self.W.finite_prime(p)
        return self.W.make_context(base, a)

    def execute(self, op):
        W = self.W
        if op[0] == "nprob":
            return W.bott_residue(W.problem_from_json(op[2])).degree_zero
        if op[0] == "lam":
            _, p, a, side, entries = op
            ctx = self._lam_ctx(p, a)
            sample = W.WittClass.from_entries(ctx.ext if side == "ext" else ctx.base, entries)
            rep = W.lam_exactness_check(ctx, [sample])
            return len(rep.violations), len(rep.undecided)
        K = self.qext[op[1]]
        return W.WittClass.from_entries(K, op[2]) == W.WittClass.from_entries(K, op[3])

    # -- checks -------------------------------------------------------------

    @staticmethod
    def _expected_degree(doc, p):
        """#rational <1> + sum over twisted points of <2> - <2a>."""
        out = []
        for c in doc["components"]:
            if c["residue"] == "rational":
                out.append(Fraction(1))
            else:
                a = Fraction(c["residue"]["twisted"]["a"])
                out += [Fraction(2), -2 * a]
        if p is None:
            return oracle.key_q(out)
        return oracle.key_fp([int(c) % p for c in out], p)

    def check(self, op, kind, value):
        if kind == TYPED:
            return self._typed(value)
        if kind == ERROR:
            return _fail(f"{type(value).__name__}: {value}")
        if op[0] == "nprob":
            return self._check_nprob(op, value)
        if op[0] == "lam":
            return self._check_lam(op, value)
        if value != op[4]:
            return _fail(f"W(Q(sqrt {op[1]})) equality of {op[2]} and {op[3]} gave {value}")
        return OK

    def _check_nprob(self, op, value):
        _, tag, doc, permuted = op
        p = None if tag == "Q" else int(tag[3:])
        if value is None:
            verdict = UNDECIDED
        elif _key(p)(value.entries) != self._expected_degree(doc, p):
            return _fail(f"degree of {doc} is {value!r}")
        else:
            verdict = OK
        if permuted != doc:
            self.pending.append((op, verdict))
        return verdict

    def _check_lam(self, op, value):
        violations, undecided = value
        if violations:
            return _fail(f"Lam relations violated for {op[4]} in {op[3]} of {op[1:3]}")
        if undecided:
            return UNDECIDED
        self.pending.append((op, OK))
        return OK

    def deferred_checks(self):
        """Permuting an N-group problem's components changes neither its
        certification nor its degree; over a Lam context, transfer of an
        extension class is the trace form computed here and lies in I_a,
        transfer(base_change(x)) is x<2, 2a>, and the scaled transfer of a
        base change is 0."""
        out = []
        for op, verdict in self.pending:
            try:
                why = self._check_nprob_permuted(op, verdict == UNDECIDED) if op[0] == "nprob" \
                    else self._check_lam_maps(op)
            except Exception as exc:  # a check that cannot run counts against the answer
                why = f"checking {op[0]} raised {type(exc).__name__}: {exc}"
            if why:
                out.append((verdict, _fail(why)))
        self.pending = []
        return out

    def _check_nprob_permuted(self, op, was_undecided):
        _, tag, doc, permuted = op
        p = None if tag == "Q" else int(tag[3:])
        other = self.W.bott_residue(self.W.problem_from_json(permuted)).degree_zero
        if (other is None) != was_undecided:
            return f"permuting the components of {doc} changed certification"
        if other is not None and _key(p)(other.entries) != self._expected_degree(doc, p):
            return f"permuting the components of {doc} changed the degree to {other!r}"
        return ""

    def _check_lam_maps(self, op):
        _, p, a, side, entries = op
        W = self.W
        ctx = self._lam_ctx(p, a)
        sample = W.WittClass.from_entries(ctx.ext if side == "ext" else ctx.base, entries)
        key = _key(p)
        if side == "ext":
            tr = W.transfer(sample, ctx)
            want = [c for e in sample.entries for c in trace_form(e, a, p)]
            if key(tr.entries) != key(want):
                return f"transfer of {sample!r} is {tr!r}"
            # the image of the transfer is killed by <1> - <a>
            if key([c * d for c in tr.entries for d in (1, -a)]) != key([]):
                return f"transfer of {sample!r} is not in I_a"
            return ""
        up = W.base_change(sample, ctx)
        tr = W.transfer(up, ctx)
        want = [c * d for c in sample.entries for d in (2, 2 * a)]
        if key(tr.entries) != key(want):
            return f"transfer(base_change({sample!r})) is {tr!r}, not x<2, 2a>"
        if key(W.scaled_transfer(up, ctx).entries) != key([]):
            return f"scaled transfer of base_change({sample!r}) is nonzero"
        return ""

    def summary(self, op, value):
        if op[0] == "nprob":
            return repr(_key(None if op[1] == "Q" else int(op[1][3:]))(value.entries))
        return repr(value)


def _key(p):
    """Complete invariant of W(Q) (p is None) or W(F_p) from diagonal entries."""
    return oracle.key_q if p is None else (lambda e: oracle.key_fp(e, p))


class _QuadQ:
    """Arithmetic in Q(sqrt a) on pairs of Fractions."""

    def __init__(self, a: int):
        self.a = a

    def mul(self, x, y):
        return (x[0] * y[0] + self.a * x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def sq(self, x):
        return self.mul(x, x)

    def neg(self, x):
        return (-x[0], -x[1])


WORKLOADS = {w.name: w for w in (Sl2nLadder, WittMix, TwistedMix)}
