"""Per-layer spans recorded from outside the program.

The layers are the omlie modules in ``LAYERS``.  A ``Tracer`` wraps every
public module-level function of each layer, plus the methods in ``METHODS``,
at every binding site in the loaded ``omlie`` modules: a name imported with
``from .linalg import solve_affine`` is a second binding of the same function,
and a wrapper on the defining module alone would miss calls through it.
Methods are wrapped on their class, which every caller reaches.

Each call is a span: name, start, end, parent (the span open when it began).
Spans are folded into per-name totals as they close, so memory stays flat:
calls, busy time (outermost activation only, so recursion is not counted
twice) and self time (duration minus the part its child spans cover).

The program is never edited.  Names a later change removes are reported as
absent; private ``_``-names and the ``track_denominators`` / ``record_bases``
hooks are never touched.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

PACKAGE = "omlie"
LAYERS = ("fields", "linalg", "algebra", "catalog", "multipoly", "admissible", "fileformat", "cli")

# Methods traced in addition to the public functions; a constructor is traced
# through ``__init__`` and reported under the class name.
METHODS = (
    "fields.RatFunc.inverse",
    "linalg.Matrix.__init__",
    "linalg.AffineSpace.restrict",
    "multipoly.MPoly.lead_monomial",
)

# Context-manager hooks that the roadmap removes; the benchmark must not use them.
SKIP = {"fields.track_denominators", "multipoly.record_bases"}

DECIDER = "admissible.decide_admissible"
# Direct children of the decider that are not the rational-point search.
NOT_SEARCH = {
    "admissible.propagate",
    "multipoly.buchberger",
    "admissible.verify_witness",
    "algebra.check_omega_lie",
}


class Stat:
    __slots__ = ("calls", "busy_s", "self_s", "depth", "extra")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.extra = {}

    def add(self, key, value):
        self.extra[key] = self.extra.get(key, 0) + value


def _matrix_cells(stat, args, result):
    m = args[0]
    stat.add("cells", m.nrows * m.ncols)


def _rref_shape(stat, args, result):
    m = args[0]
    stat.add("cells", m.nrows * m.ncols)
    stat.add("rows", m.nrows)
    stat.add("nnz", sum(1 for row in m.rows for v in row if v))
    stat.add("rank", result[1])


def _residual_count(stat, args, result):
    stat.add("residuals", len(result))


# Counts taken from a call's arguments and result, after its span closes.
MEASURES = {
    "linalg.Matrix.__init__": _matrix_cells,
    "linalg.rref": _rref_shape,
    "admissible.module_identity_residuals": _residual_count,
}


def _metric_name(name):
    return name[: -len(".__init__")] if name.endswith(".__init__") else name


class Tracer:
    """Wraps the layers' functions between ``install()`` and ``uninstall()``."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.absent: set[str] = set()
        self.measure_failed: set[str] = set()
        self.search_s = 0.0
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if (name == PACKAGE or name.startswith(PACKAGE + ".")) and mod is not None
        }
        targets = []
        for layer in LAYERS:
            mod = modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                self.absent.add(layer)
                continue
            for attr, value in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or name in SKIP
                    or not inspect.isfunction(value)
                    or value.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(value)
                ):
                    continue
                targets.append((name, value))
        for name, orig in targets:
            wrapper = self._wrap(name, orig)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, attr, orig, wrapper))
        for dotted in METHODS:
            layer, cls_name, attr = dotted.split(".")
            cls = getattr(modules.get(f"{PACKAGE}.{layer}"), cls_name, None)
            orig = vars(cls).get(attr) if isinstance(cls, type) else None
            if not inspect.isfunction(orig):
                self.absent.add(_metric_name(dotted))
                continue
            self._patches.append((cls, attr, orig, self._wrap(dotted, orig)))

    def install(self):
        for owner, attr, _orig, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig, _wrapper in self._patches:
            setattr(owner, attr, orig)

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(_metric_name(name), Stat())
        stack = self._stack
        measure = MEASURES.get(name)
        is_decider = name == DECIDER
        not_search = name in NOT_SEARCH

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # frame: [child seconds, seconds of direct non-search children, name]
            frame = [0.0, 0.0, name]
            stack.append(frame)
            depth = stat.depth
            stat.depth = depth + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                stat.depth = depth
                stat.calls += 1
                stat.self_s += dur - frame[0]
                if depth == 0:
                    stat.busy_s += dur
                if is_decider:
                    self.search_s += dur - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[0] += dur
                    if not_search and parent[2] == DECIDER:
                        parent[1] += dur
            if measure is not None:
                t0 = perf_counter()
                try:
                    measure(stat, args, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    self.measure_failed.add(_metric_name(name))
                if stack:
                    stack[-1][0] += perf_counter() - t0
            return result

        return traced

    def layer_self_s(self):
        out = {layer: 0.0 for layer in LAYERS}
        for name, stat in self.stats.items():
            out[name.split(".", 1)[0]] += stat.self_s
        return out
