"""Layer tracing of one qweylab process, installed from outside the program.

`Tracer.install()` wraps public functions and methods of the `qweylab`
modules.  The modules import each other by name (``from .exactla import
mat_mul``), so every module-level name bound to a wrapped function is
rebound, and calls through any of those names are seen.

Two kinds of record are kept, both in memory until `summary()`:

* spans, one per call of a layer function: name, start, end, parent span and
  the scalar time spent directly inside it.  Self time is the duration minus
  the child spans and that scalar time.
* counts of `Scalar` operations.  Arithmetic is counted and its time summed
  at the outermost `Scalar` call (a subtraction that calls an addition is
  timed once).  `is_zero` runs about ten million times on the rep-matrix
  workload, so it is only counted: its time stays in the enclosing span.
"""

from __future__ import annotations

import functools
import sys
import time

# (span name, module, attribute path); several attributes may share a name.
SPANNED = [
    ("qweyl.pbw_mul", "qweylab.qweyl", "PBWElement.__mul__"),
    ("qweyl.pbw_pow", "qweylab.qweyl", "PBWElement.__pow__"),
    ("hopf.double_mul", "qweylab.hopf", "DoubleElement.__mul__"),
    ("moment.ideal_reduce", "qweylab.moment", "moment_ideal_reduce"),
    ("moment.reduced_product", "qweylab.moment", "reduced_product"),
    ("rootofunity.build_rep", "qweylab.rootofunity", "build_irrep"),
    ("rootofunity.commutant", "qweylab.rootofunity", "commutant_dimension"),
    ("reduction.moment_operators", "qweylab.reduction", "moment_operators"),
    ("reduction.weight_space", "qweylab.reduction", "weight_space"),
    ("reduction.reduced_endos", "qweylab.reduction", "reduced_endomorphism_algebra"),
    ("reduction.restriction", "qweylab.reduction", "restriction_kernel_check"),
    ("exactla.mat_mul", "qweylab.exactla", "mat_mul"),
    ("exactla.mat_pow", "qweylab.exactla", "mat_pow"),
    ("exactla.kron", "qweylab.exactla", "kron"),
    ("exactla.sparse_kernel", "qweylab.exactla", "sparse_kernel"),
    ("expr.parse", "qweylab.expr", "parse_expression"),
    ("expr.parse", "qweylab.expr", "parse_scalar"),
    # the one printer behind format_pbw, format_localized and ReducedElement
    ("expr.format", "qweylab.expr", "_format_terms"),
    ("config.load", "qweylab.config", "load_config"),
]

# Scalar methods that are counted and timed, by the count they add to.
SCALAR_TIMED = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
    "__neg__": "neg", "__mul__": "mul", "__rmul__": "mul", "inv": "inv",
    "__truediv__": "div", "__rtruediv__": "div", "__pow__": "pow", "__eq__": "eq",
}

CACHES = [
    ("qweyl._one_var_table", "qweylab.qweyl", "_one_var_table"),
    ("qweyl._reorder", "qweylab.qweyl", "_reorder"),
    ("hopf.coproduct", "qweylab.hopf", "coproduct"),
    ("hopf.antipode_coeff", "qweylab.hopf", "antipode_coeff"),
    ("hopf.pairing", "qweylab.hopf", "pairing"),
    ("hopf._smash_core", "qweylab.hopf", "_smash_core"),
    ("moment._alpha_table", "qweylab.moment", "_alpha_table"),
]

_NAME, _START, _END, _PARENT, _SCALAR = range(5)


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _rebind(original, replacement):
    """Point every qweylab module-level name bound to `original` at `replacement`."""
    for name, module in list(sys.modules.items()):
        if name == "qweylab" or name.startswith("qweylab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.scalar_counts = dict.fromkeys(set(SCALAR_TIMED.values()) | {"is_zero"}, 0)
        self.scalar_time = [0.0]
        self.scalar_depth = [0]
        self.elim_adds = [0]
        self.kernel_unknowns_max = [0]

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[_END] = clock()
                stack.pop()

        return wrapper

    def _scalar_timed(self, key, fn):
        counts, total, spans, stack = self.scalar_counts, self.scalar_time, self.spans, self.stack
        clock, depth = time.perf_counter, self.scalar_depth

        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            if depth[0]:
                return fn(*args)
            depth[0] = 1
            start = clock()
            try:
                return fn(*args)
            finally:
                elapsed = clock() - start
                depth[0] = 0
                total[0] += elapsed
                if stack:
                    spans[stack[-1]][_SCALAR] += elapsed

        return wrapper

    def install(self):
        import qweylab.cli  # noqa: F401  (imports every other qweylab module)
        from qweylab import exactla
        from qweylab.scalars import Scalar

        for name, module_name, path in SPANNED:
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            if original is exactla.sparse_kernel:
                wrapped = self._span(name, self._kernel_size(original))
            else:
                wrapped = self._span(name, original)
            setattr(owner, attr, wrapped)
            _rebind(original, wrapped)

        for attr, key in SCALAR_TIMED.items():
            setattr(Scalar, attr, self._scalar_timed(key, vars(Scalar)[attr]))
        counts, is_zero = self.scalar_counts, Scalar.is_zero

        def counted_is_zero(s):
            counts["is_zero"] += 1
            return is_zero(s)

        Scalar.is_zero = counted_is_zero

        adds, add = self.elim_adds, exactla.SparseEliminator.add

        def counted_add(elim, vec):
            adds[0] += 1
            return add(elim, vec)

        exactla.SparseEliminator.add = counted_add

    def _kernel_size(self, fn):
        biggest = self.kernel_unknowns_max

        def sized(rows, ncols, field):
            biggest[0] = max(biggest[0], ncols)
            return fn(rows, ncols, field)

        return sized

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds of the outermost calls
        (a nested call of the same name is not counted twice) and self
        seconds; plus scalar counts and lru_cache snapshots."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[_PARENT] >= 0:
                child[rec[_PARENT]] += rec[_END] - rec[_START]
        layers: dict[str, dict] = {}
        for idx, rec in enumerate(spans):
            name, duration = rec[_NAME], rec[_END] - rec[_START]
            entry = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += duration - child[idx] - rec[_SCALAR]
            parent = rec[_PARENT]
            while parent >= 0 and spans[parent][_NAME] != name:
                parent = spans[parent][_PARENT]
            if parent < 0:
                entry["total_s"] += duration
        return {
            "layers": layers,
            "scalar_counts": dict(self.scalar_counts),
            "scalar_s": self.scalar_time[0],
            "elim_add_calls": self.elim_adds[0],
            "sparse_kernel_unknowns_max": self.kernel_unknowns_max[0],
            "caches": cache_snapshot(),
        }


def cache_snapshot() -> dict:
    out = {}
    for label, module_name, attr in CACHES:
        info = getattr(sys.modules[module_name], attr).cache_info()
        out[label] = {"hits": info.hits, "misses": info.misses, "currsize": info.currsize}
    return out
