"""Quadratic extensions k(sqrt(a))/k: base change, transfer, and the
three-term exact cycle W(k) -> W(k(sqrt a)) -> W(k) -> W(k).

Base change reads the counted representative ``WittClass.terms`` and both
transfers read the distinct entries (over Q(sqrt a) the int pairs of the
key), so they cost the distinct entries of a class, not its rank.  The
transfer is computed per distinct entry from the closed-form diagonal of
the trace form on the basis {1, sqrt(a)}, scaled by its count; the scaled
transfer twists by <sqrt(a)> first (``witt.trace_class``).  The ideal I_a
is the kernel of multiplication by 1 - <a>, which equals the image of the
transfer.  The kernel of base change is (1 - <a>)W(k); a class in it is
certified by a multiplier, over Q solved for on the W(Q) keys, never
searched for.  A ``QuadExtContext`` is one object per extension field
(``Canonical``).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import List, Optional

from . import fields as F
from . import places
from .errors import FieldMismatch, UnsupportedField
from .fields import FINITE_PRIME, QUAD_EXT, RATIONALS, REALS, Canonical, FieldDescriptor
from .witt import WittClass, _canonicalize, integer_class, trace_class
from .witt import sqrt_a_class  # noqa: F401  re-exported


class QuadExtContext(Canonical):
    """k(sqrt a) over k, one object per extension field ``ext``; ``base``
    and ``a`` are read from it, and ``one_minus_a``, the class <1> - <a>
    over the base that generates the kernel of base change, is made once."""

    _fields = ("ext",)
    __slots__ = _fields + ("base", "a", "one_minus_a")

    def __new__(cls, ext: FieldDescriptor):
        return cls._canonical(ext)

    def _made(self):
        if not isinstance(self.ext, FieldDescriptor) or self.ext.kind != QUAD_EXT:
            raise UnsupportedField(f"need a quadratic extension, got {self.ext!r}")
        base, a = self.ext.base, self.ext.a
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "one_minus_a",
                           WittClass.from_entries(base, (F.one(base), F.neg(base, a))))


def make_context(base: FieldDescriptor, a) -> QuadExtContext:
    return QuadExtContext(F.quad_ext(base, a))


# ---------------------------------------------------------------------------


def base_change(x: WittClass, ctx: QuadExtContext) -> WittClass:
    if x.field != ctx.base:
        raise FieldMismatch(f"expected class over {ctx.base}, got {x.field}")
    zero = F.zero(ctx.base)
    return WittClass(ctx.ext, _canonicalize(ctx.ext, [((c, zero), n) for c, n in x.terms]))


def _ext_class(x: WittClass, ctx: QuadExtContext) -> WittClass:
    if x.field != ctx.ext:
        raise FieldMismatch(f"expected class over {ctx.ext}, got {x.field}")
    return x


def transfer(x: WittClass, ctx: QuadExtContext) -> WittClass:
    """Scharlau trace transfer W(k(sqrt a)) -> W(k), one closed-form trace
    form per distinct entry (``witt.trace_class``)."""
    return trace_class(_ext_class(x, ctx))


def scaled_transfer(x: WittClass, ctx: QuadExtContext) -> WittClass:
    """The transfer of <sqrt a>*x."""
    return trace_class(_ext_class(x, ctx), twist=True)


def in_Ia(x: WittClass, ctx: QuadExtContext) -> bool:
    """Membership in I_a = ker( * (1 - <a>) ) on W(base)."""
    if x.field != ctx.base:
        raise FieldMismatch(f"expected class over {ctx.base}, got {x.field}")
    return (x * ctx.one_minus_a).is_zero()


def iota_is_zero(x: WittClass, ctx: QuadExtContext) -> bool:
    """Whether x dies under base change (sound and complete per base field)."""
    if x.field != ctx.base:
        raise FieldMismatch(f"expected class over {ctx.base}, got {x.field}")
    if ctx.base.kind == RATIONALS:
        return places.ker_iota_rational(x.terms, ctx.a)
    return base_change(x, ctx).is_zero()


# ---------------------------------------------------------------------------
# certified membership in the principal ideal (1 - <a>) W(k)


def all_witt_classes(field: FieldDescriptor) -> List[WittClass]:
    """The four elements of W(F_p) or W(F_{p^2}): keys (rank mod 2, signed
    discriminant is a square), zero first, then <1>, <s>, and the nonzero
    rank-0 class."""
    if (field.base or field).kind != FINITE_PRIME:  # F_p, or an extension of it
        raise FieldMismatch(f"{field} is not a supported finite field")
    return [WittClass(field, k) for k in ((0, True), (1, True), (1, False), (0, False))]


def principal_ideal_certificate(x: WittClass, ctx: QuadExtContext) -> Optional[WittClass]:
    """A multiplier y with (1 - <a>) * y = x, or None when provably absent.

    Over finite base fields the four classes are tried, over R the
    signature decides, and over Q the product rule is solved on the keys
    (``places.wq_kernel_preimage``); every y is checked by multiplying back.
    Over Q it is ``verify lam``'s witness for ker(iota) = (1 - <a>)W(Q), and
    shares no code with the kernel test ``iota_is_zero``.
    """
    if x.field != ctx.base:
        raise FieldMismatch(f"expected class over {ctx.base}, got {x.field}")
    gen = ctx.one_minus_a
    if ctx.base.kind == FINITE_PRIME:
        return next((y for y in all_witt_classes(ctx.base) if gen * y == x), None)
    if ctx.base.kind == REALS:
        (t,) = x.signatures()
        y = None if t % 2 else integer_class(t // 2, ctx.base)
    else:  # Q, the only other base of a quadratic extension
        key = places.wq_kernel_preimage(x.key, ctx.a)
        y = None if key is None else WittClass(ctx.base, key)
    return y if y is not None and gen * y == x else None


# ---------------------------------------------------------------------------
# exactness report


@dataclass
class LamReport:
    ctx: QuadExtContext
    checked: int = 0
    violations: List[str] = dc_field(default_factory=list)
    # always empty, as every check is decided; the benchmark harness reads it
    undecided: List[str] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations and not self.undecided

    def lines(self) -> List[str]:
        out = [f"lam-exactness over {self.ctx.base}(sqrt:{F.scalar_repr(self.ctx.base, self.ctx.a)}): {self.checked} checks"]
        out += [f"  VIOLATION: {v}" for v in self.violations]
        out += [f"  UNDECIDED: {u}" for u in self.undecided]
        out.append(f"  result: {'pass' if self.passed else 'FAIL'}")
        return out


def lam_exactness_check(ctx: QuadExtContext, samples) -> LamReport:
    """Check the three-term exactness relations on each sample class.

    Base-field samples are run through ker(iota) = (1-<a>)W(k) (with a
    certified multiplier), scaled_transfer o base_change = 0, and
    in_Ia(transfer(base_change(x))).  Extension-field samples check that
    their transfer lands in I_a.
    """
    rep = LamReport(ctx)
    for s in samples:
        if s.field == ctx.base:
            rep.checked += 1
            t = base_change(s, ctx)
            if not scaled_transfer(t, ctx).is_zero():
                rep.violations.append(f"scaled_transfer(iota({s!r})) != 0")
            if not in_Ia(transfer(t, ctx), ctx):
                rep.violations.append(f"transfer(iota({s!r})) not in I_a")
            dead = iota_is_zero(s, ctx)
            y = principal_ideal_certificate(s, ctx)
            if dead and y is None:
                rep.violations.append(f"{s!r} in ker(iota) but not in (1-<a>)W(k)")
            if not dead and y is not None:
                rep.violations.append(f"{s!r} in (1-<a>)W(k) but iota({s!r}) != 0")
        elif s.field == ctx.ext:
            rep.checked += 1
            if not in_Ia(transfer(s, ctx), ctx):
                rep.violations.append(f"transfer({s!r}) not in I_a")
        else:
            raise FieldMismatch(f"sample over {s.field} fits neither side of {ctx}")
    return rep
