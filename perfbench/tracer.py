"""Per-layer spans recorded from outside the library.

The tracer wraps functions and methods of ``quiverinv`` in place: every
module attribute that refers to a wrapped function is swapped for the
wrapper (so ``from .generic import generic_subdims`` in another module is
caught too), and methods are wrapped on their class.  Each wrapper records
calls and self seconds: its span's duration minus the part covered by
wrapped callees.  Generator functions are timed per ``next()`` and also
count the items they yield.  ``restore()`` puts every original back.

Targets that a later version of the library no longer has are skipped, so
their counters read zero instead of breaking the run.
"""

import sys
import time

# span key -> (is generator, locations).  A location is (module, owner,
# attribute); the owner is a class or module attribute of that module (None
# for a module-level function).  The first location that resolves is used.
TARGETS = {
    "core.euler": (False, (("quiverinv.core", "EulerMatrix", "euler"),)),
    "core.tup": (False, (("quiverinv.core", "EulerMatrix", "tup"),)),
    "core.is_acyclic": (False, (("quiverinv.core", "Quiver", "is_acyclic"),)),
    "core.topological_order": (
        False,
        (("quiverinv.core", "Quiver", "topological_order"),),
    ),
    "core.classify": (False, (("quiverinv.core", None, "classify_path_algebra"),)),
    "linalg.charpoly": (False, (("quiverinv.linalg", None, "charpoly"),)),
    "linalg.signature": (False, (("quiverinv.linalg", None, "symmetric_signature"),)),
    "lr.partition": (False, (("quiverinv.lr", None, "partition"),)),
    "lr.schur_product": (False, (("quiverinv.lr", None, "schur_product"),)),
    "lr.tensor_fold": (False, (("quiverinv.lr", None, "tensor_fold"),)),
    # whichever kernel lr dispatches to; the pure module when lr holds none
    "lr.kernel": (
        False,
        (
            ("quiverinv.lr", "_kernel", "schur_mult"),
            ("quiverinv._lrkernel_py", None, "schur_mult"),
        ),
    ),
    "siweights.si_dim": (False, (("quiverinv.siweights", None, "si_dim"),)),
    "siweights.si_cost": (False, (("quiverinv.siweights", None, "_si_cost"),)),
    "siweights.direct": (False, (("quiverinv.siweights", None, "_si_dim_direct"),)),
    "siweights.flows": (True, (("quiverinv.siweights", None, "_flows"),)),
    "siweights.vertex_mult": (False, (("quiverinv.siweights", None, "_vertex_mult"),)),
    "generic.ext": (False, (("quiverinv.generic", None, "ext_generic"),)),
    "generic.subdims": (False, (("quiverinv.generic", None, "generic_subdims"),)),
    "stability.semistable": (
        False,
        (("quiverinv.stability", None, "is_semistable_generic"),),
    ),
    "stability.effective_cone": (
        False,
        (("quiverinv.stability", None, "effective_cone"),),
    ),
    "cones.describe": (False, (("quiverinv.cones", None, "describe"),)),
    "canonical.classify": (False, (("quiverinv.canonical", None, "classify_canonical"),)),
}

# (metric name, module, cache attribute): entries left at the end of a pass
CACHES = (
    ("generic.ext_cache", "quiverinv.generic", "_EXT_CACHE"),
    ("generic.subdims_cache", "quiverinv.generic", "_SUBDIMS_CACHE"),
    ("siweights.vertex_cache", "quiverinv.siweights", "_VERTEX_CACHE"),
    ("lr.product_cache", "quiverinv.lr", "_PRODUCT_CACHE"),
)


def cache_sizes():
    """Current entry count of each traced cache (0 when it is gone)."""
    out = {}
    for name, modname, attr in CACHES:
        cache = getattr(sys.modules.get(modname), attr, None)
        out[name] = len(cache) if cache is not None else 0
    return out


def _resolve(locations):
    """(owner, attribute, original, via owner) for the first location found."""
    for modname, owner_name, attr in locations:
        module = sys.modules.get(modname)
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, attr, None)
        if original is not None:
            return owner, attr, original, owner_name is not None
    return None


class Tracer:
    """Installs wrappers, accumulates [calls, self_s, yielded] per key."""

    def __init__(self):
        self.stats = {key: [0, 0.0, 0] for key in TARGETS}
        self._stack = [0.0]
        self._undo = []

    def _wrap(self, fn, rec):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                rec[0] += 1
                rec[1] += elapsed - stack.pop()
                stack[-1] += elapsed

        return wrapper

    def _wrap_gen(self, fn, rec):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec[0] += 1
            inner = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    elapsed = clock() - start
                    rec[1] += elapsed - stack.pop()
                    stack[-1] += elapsed
                rec[2] += 1
                yield item

        return wrapper

    def install(self):
        self.sizes_before = cache_sizes()
        for key, (is_gen, locations) in TARGETS.items():
            found = _resolve(locations)
            if found is None:
                continue
            owner, attr, original, by_owner = found
            rec = self.stats[key]
            wrapper = (self._wrap_gen if is_gen else self._wrap)(original, rec)
            if by_owner:
                self._swap(owner, attr, original, wrapper)
                continue
            # every module-level alias of the function, across the package
            for name, mod in list(sys.modules.items()):
                if name != "quiverinv" and not name.startswith("quiverinv."):
                    continue
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._swap(mod, alias, original, wrapper)

    def _swap(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def restore(self):
        self.sizes_after = cache_sizes()
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
