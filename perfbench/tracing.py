"""Opt-in spans around the layers of kreinrel and around LAPACK calls.

Nothing here edits the program.  While a context manager is active it
rebinds names from the outside and restores every binding on exit:

* ``count_lapack(tracer)`` wraps ``numpy.linalg.{svd, eigh, eigvalsh,
  qr, solve, inv, lstsq, cond}`` and ``scipy.linalg.eigvals``.
  ``cond`` is wrapped on its own: numpy runs its SVD internally, where
  a wrapped ``numpy.linalg.svd`` does not see it.
* ``wrap_layers(tracer)`` wraps the public functions of every kreinrel
  module, rebinding the name in *every* kreinrel module that holds it
  (``from .subspaces import column_space`` copies the binding), and
  the methods and constructors of the public classes on the class.

A span is one wrapped call.  Self time is a span's duration minus the
duration of the spans it caused.  Spans are aggregated in memory per
phase ("setup" or "jobs") and read out with ``Tracer.summary``.
"""

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAPACK_ROUTINES = ("svd", "eigh", "eigvalsh", "qr", "solve", "inv",
                   "lstsq", "cond", "eigvals")

# kreinrel modules whose public names are layers; ``cli`` and ``errors``
# hold no work the benchmark calls
LAYER_MODULES = ("subspaces", "spaces", "relations", "boundary",
                 "transforms", "generators", "nevanlinna", "checks",
                 "serialize")


def svd_flops(shape, compute_uv=True, full_matrices=True, complex_=True):
    """Computed (not measured) flop count of one LAPACK SVD.

    Golub-Reinsch counts from Golub & Van Loan, *Matrix Computations*,
    4th ed., Fig. 8.6.1, for an r x c matrix with r >= c (the transpose
    otherwise), times 4 for complex arithmetic, times the batch size
    for stacked inputs.
    """
    *batch, r, c = shape
    r, c = max(r, c), min(r, c)
    if compute_uv and full_matrices:
        flops = 4 * r * r * c + 8 * r * c * c + 9 * c ** 3
    elif compute_uv:
        flops = 14 * r * c * c + 8 * c ** 3
    else:
        flops = 4 * r * c * c - 4 * c ** 3 / 3
    count = 1
    for b in batch:
        count *= b
    return count * flops * (4 if complex_ else 1)


class Tracer:
    """In-memory span aggregates: calls, inclusive and self time."""

    def __init__(self):
        self.phase = "jobs"
        self.calls = Counter()          # (phase, name) -> calls
        self.incl = defaultdict(float)  # (phase, name) -> outermost time
        self.self_s = defaultdict(float)  # (phase, layer) -> self time
        self.layer_s = defaultdict(float)  # (phase, layer) -> outermost time
        self.svd_flops = Counter()      # phase -> computed SVD flops
        self.gen_returned = Counter()   # phase -> pairs from gen_* calls
        self.gen_built = Counter()      # phase -> BoundaryPairs built in gen_*
        self.gen_errors = Counter()     # phase -> GenerationError from gen_*
        self._stack = []                # child time of each open span
        self._depth = Counter()         # name or layer -> open spans
        self._pair_cls = None
        self._gen_error_cls = None

    def call(self, name, layer, fn, args, kwargs):
        frame = [0.0]
        self._stack.append(frame)
        depth = self._depth[name]
        self._depth[name] = depth + 1
        layer_depth = self._depth[layer]
        self._depth[layer] = layer_depth + 1
        outer_gen = layer == "generators" and layer_depth == 0
        if name == "boundary.BoundaryPair" and self._depth["generators"]:
            self.gen_built[self.phase] += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            if outer_gen and isinstance(exc, self._gen_error_cls or ()):
                self.gen_errors[self.phase] += 1
            raise
        else:
            if outer_gen and isinstance(out, self._pair_cls or ()):
                self.gen_returned[self.phase] += 1
            return out
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self._depth[name] = depth
            self._depth[layer] = layer_depth
            if self._stack:
                self._stack[-1][0] += dt
            key = (self.phase, name)
            self.calls[key] += 1
            if depth == 0:
                self.incl[key] += dt
            if layer_depth == 0:
                self.layer_s[(self.phase, layer)] += dt
            self.self_s[(self.phase, layer)] += dt - frame[0]

    # -- readout ------------------------------------------------------
    def total_calls(self, name):
        return sum(v for (_, n), v in self.calls.items() if n == name)

    def total_s(self, name):
        return sum(v for (_, n), v in self.incl.items() if n == name)

    def layer_self_s(self, layer, phase=None):
        return sum(v for (ph, lay), v in self.self_s.items()
                   if lay == layer and phase in (None, ph))

    def layer_total_s(self, layer):
        return sum(v for (_, lay), v in self.layer_s.items() if lay == layer)

    def summary(self):
        """Every span name with its calls and inclusive time, per phase."""
        rows = {}
        for (phase, name), calls in sorted(self.calls.items()):
            rows[f"{phase}:{name}"] = {"calls": calls,
                                       "s": self.incl[(phase, name)]}
        layers = {f"{phase}:{layer}": s
                  for (phase, layer), s in sorted(self.self_s.items())}
        return {"spans": rows, "self_s": layers}


def _wrap(tracer, name, layer, fn, before=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        return tracer.call(name, layer, fn, args, kwargs)
    return wrapper


@contextlib.contextmanager
def _rebound(patches):
    """Apply ``(owner, attr, new)`` rebindings; restore them on exit."""
    saved = []
    try:
        for owner, attr, new in patches:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


@contextlib.contextmanager
def count_lapack(tracer):
    """Count and time the LAPACK-backed numpy/scipy routines."""
    import numpy.linalg
    import scipy.linalg

    def add_svd_flops(args, kwargs):
        a = args[0] if args else kwargs["a"]
        full = args[1] if len(args) > 1 else kwargs.get("full_matrices", True)
        uv = args[2] if len(args) > 2 else kwargs.get("compute_uv", True)
        shape = getattr(a, "shape", None) or numpy.shape(a)
        tracer.svd_flops[tracer.phase] += svd_flops(
            shape, uv, full, numpy.iscomplexobj(a))

    patches = []
    for routine in LAPACK_ROUTINES:
        owner = scipy.linalg if routine == "eigvals" else numpy.linalg
        fn = getattr(owner, routine)
        before = add_svd_flops if routine == "svd" else None
        patches.append((owner, routine,
                        _wrap(tracer, f"lapack.{routine}", "lapack", fn,
                              before)))
    with _rebound(patches):
        yield tracer


def _layer_patches(tracer):
    mods = {short: sys.modules[f"kreinrel.{short}"] for short in LAYER_MODULES}
    holders = [sys.modules["kreinrel"], sys.modules["kreinrel.cli"],
               *mods.values()]
    wrappers = {}   # original function -> wrapper
    patches = []
    for short, mod in mods.items():
        for attr, val in vars(mod).items():
            if attr.startswith("_") or getattr(val, "__module__", None) \
                    != mod.__name__:
                continue
            if inspect.isfunction(val):
                wrappers[val] = _wrap(tracer, f"{short}.{attr}", short, val)
            elif inspect.isclass(val):
                patches += _class_patches(tracer, short, val)
    for holder in holders:
        for attr, val in vars(holder).items():
            if inspect.isfunction(val) and val in wrappers:
                patches.append((holder, attr, wrappers[val]))
    return patches


def _class_patches(tracer, short, cls):
    out = []
    for attr, val in vars(cls).items():
        if attr == "__init__":
            name = f"{short}.{cls.__name__}"
        elif attr.startswith("_"):
            continue
        else:
            name = f"{short}.{cls.__name__}.{attr}"
        if inspect.isfunction(val):
            out.append((cls, attr, _wrap(tracer, name, short, val)))
        elif isinstance(val, (staticmethod, classmethod)):
            kind = type(val)
            out.append((cls, attr,
                        kind(_wrap(tracer, name, short, val.__func__))))
    return out


@contextlib.contextmanager
def wrap_layers(tracer):
    """Span every public kreinrel function, method and constructor."""
    import kreinrel.cli  # noqa: F401  (a holder of copied bindings)
    from kreinrel.boundary import BoundaryPair
    from kreinrel.errors import GenerationError

    tracer._pair_cls = BoundaryPair
    tracer._gen_error_cls = GenerationError
    with _rebound(_layer_patches(tracer)):
        yield tracer


@contextlib.contextmanager
def traced(tracer, phase):
    """Layer spans and LAPACK counts together, tagged with ``phase``."""
    tracer.phase = phase
    with count_lapack(tracer), wrap_layers(tracer):
        yield tracer
