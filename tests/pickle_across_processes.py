"""Pickle canonical wittloc objects in one interpreter and check them in another.

    PYTHONHASHSEED=1 python tests/pickle_across_processes.py dump OBJECTS.pickle
    PYTHONHASHSEED=2 python tests/pickle_across_processes.py load OBJECTS.pickle

``dump`` pickles a field, a presentation, a quadratic-extension context, an
irrep of each group, a RepSum of each group, a group with its carrier ring,
and a Witt class over Q and over Q(sqrt 2).  ``load``, run under another
hash seed, checks that each loaded canonical object is the same object
built afresh, and that each loaded Witt class is == to the fresh one, as a
class is not one object per value.  Each canonical object is one object
per value, and a string's hash changes from one process to the next, so a
pickle that carried its state over, not its constructor arguments, would
load as a second object that neither == nor a dict lookup matches, which
a single process cannot see.  Exits 1 naming each object that fails.
"""

from __future__ import annotations

import pickle
import sys

from wittloc import fields as F
from wittloc.engine import GroupDescriptor
from wittloc.euler import RHO, RHO0_MINUS, NIrrep, SL2nIrrep, n_rep, sl2n_rep
from wittloc.quadext import make_context
from wittloc.rings import integral_bsl2n, twisted_point
from wittloc.witt import witt


def build_classes() -> dict:
    q2 = F.quad_ext(F.rationals(), 2)
    return {
        "W(Q) class": witt(F.rationals(), 3, 5, -7),
        "W(Q(sqrt 2)) class": witt(q2, F.coerce(q2, (1, 1)), 3),
    }


def build() -> dict:
    q = F.rationals()
    ctx = make_context(q, 3)
    rho3 = NIrrep(RHO, 3)
    group = GroupDescriptor("SL2n", 2, F.quad_ext(q, -7))
    return {
        "group": group,
        "group carrier": group.carrier,
        "field": F.quad_ext(F.finite_prime(7), 3),
        "presentation": integral_bsl2n(2, F.quad_ext(q, 2)),
        "twisted presentation": twisted_point(ctx),
        "context": ctx,
        "SL2n irrep": SL2nIrrep((1, 0, 3)),
        "N irrep": rho3,
        "SL2n RepSum": sl2n_rep(2, [(1, 0), ((1, 1), 2)]),
        "N RepSum": n_rep([rho3, (NIrrep(RHO0_MINUS), 2)]),
    }


def failures(loaded: dict) -> list:
    return ([f"{name}: the loaded object is not the fresh one"
             for name, fresh in build().items() if loaded[name] is not fresh]
            + [f"{name}: the loaded class is not == the fresh one"
               for name, fresh in build_classes().items() if not loaded[name] == fresh])


def main(argv) -> int:
    mode, path = argv
    if mode == "dump":
        with open(path, "wb") as fh:
            pickle.dump({**build(), **build_classes()}, fh)
        return 0
    with open(path, "rb") as fh:
        bad = failures(pickle.load(fh))
    for line in bad:
        print(line, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
