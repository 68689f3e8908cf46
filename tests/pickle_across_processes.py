"""Pickle canonical wittloc objects in one interpreter and check them in another.

    PYTHONHASHSEED=1 python tests/pickle_across_processes.py dump OBJECTS.pickle
    PYTHONHASHSEED=2 python tests/pickle_across_processes.py load OBJECTS.pickle

``dump`` pickles a field, a presentation, a quadratic-extension context, an
irrep of each group and a RepSum of each group.  ``load``, run under
another hash seed, checks that each loaded object is the same object built
afresh.  Each of them is one object per value, and a string's hash changes
from one process to the next, so a pickle that carried its state over,
not its constructor arguments, would load as a second object that neither
== nor a dict lookup matches, which a single process cannot see.  Exits 1
naming each object that fails.
"""

from __future__ import annotations

import pickle
import sys

from wittloc import fields as F
from wittloc.euler import RHO, RHO0_MINUS, NIrrep, SL2nIrrep, n_rep, sl2n_rep
from wittloc.quadext import make_context
from wittloc.rings import integral_bsl2n, twisted_point


def build() -> dict:
    q = F.rationals()
    ctx = make_context(q, 3)
    rho3 = NIrrep(RHO, 3)
    return {
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
    return [name for name, fresh in build().items() if loaded[name] is not fresh]


def main(argv) -> int:
    mode, path = argv
    if mode == "dump":
        with open(path, "wb") as fh:
            pickle.dump(build(), fh)
        return 0
    with open(path, "rb") as fh:
        bad = failures(pickle.load(fh))
    for name in bad:
        print(f"{name}: the loaded object is not the fresh one", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
