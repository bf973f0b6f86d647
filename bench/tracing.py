"""Per-layer counts, times and self times, taken by wrapping from outside.

The layers are the modules of ``src/orbitquad`` named in ``LAYERS``.  A
``Tracer`` wraps each public function and method of those modules, plus the
constructor and arithmetic dunders of their classes, and replaces every
binding of each function in the package (``reps.cyclic_closure`` and
``orbit.cyclic_closure`` are separate bindings of one function).  ``restore``
puts the originals back.

For each wrapped callable it keeps the number of calls and the inclusive
seconds of its outermost calls.  A layer's self time is the time spent while
the innermost wrapped call in progress belongs to that layer, so nested calls
into other layers are taken out of it.  ``lie`` and ``errors`` are not
wrapped: the Lie algebra is used as data, and its cost shows up in ``reps``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from pathlib import Path
from time import perf_counter

PACKAGE = "orbitquad"
LAYERS = ("linalg", "reps", "orbit", "multimatrix", "chordal", "cli")
_DUNDERS = frozenset({"__init__", "__add__", "__sub__", "__mul__", "__neg__", "__eq__"})

# Each per-layer metric: (name, unit, kind, argument).
#   calls/s : call count / inclusive seconds of one wrapped callable
#   extra   : a count taken from results or from what a call ran inside it
#   self    : a layer's self time
METRICS = [
    ("linalg.mat_mul.calls", "count", "calls", "linalg:Mat.__mul__"),
    ("linalg.mat_new.calls", "count", "calls", "linalg:Mat.__init__"),
    ("linalg.span_add.calls", "count", "calls", "linalg:PivotedSpan.add"),
    ("linalg.span_add.grew", "count", "extra", "span_grew"),
    ("linalg.mat_apply.calls", "count", "calls", "linalg:Mat.apply"),
    ("linalg.subspace_new.calls", "count", "calls", "linalg:Subspace.__init__"),
    ("linalg.solve.calls", "count", "calls", "linalg:solve"),
    ("linalg.self_s", "s", "self", "linalg"),
    ("reps.derived_rep.builds", "count", "extra", "rep_builds"),
    ("reps.verify_homomorphism.calls", "count", "calls", "reps:Rep.verify_homomorphism"),
    ("reps.verify_homomorphism.s", "s", "s", "reps:Rep.verify_homomorphism"),
    ("reps.cyclic_closure.calls", "count", "calls", "reps:cyclic_closure"),
    ("reps.cyclic_closure.s", "s", "s", "reps:cyclic_closure"),
    ("reps.isotypic_decomposition.s", "s", "s", "reps:isotypic_decomposition"),
    ("reps.weight_decomposition.s", "s", "s", "reps:weight_decomposition"),
    ("reps.highest_weight_vectors.s", "s", "s", "reps:highest_weight_vectors"),
    ("reps.exp_nilpotent.calls", "count", "calls", "reps:exp_nilpotent"),
    ("reps.self_s", "s", "self", "reps"),
    ("orbit.orbit_module.calls", "count", "calls", "orbit:orbit_module"),
    ("orbit.orbit_module.misses", "count", "extra", "module_misses"),
    ("orbit.generator_sequence.s", "s", "s", "orbit:generator_sequence"),
    ("orbit.nilpotency_bound.calls", "count", "calls", "orbit:nilpotency_bound"),
    ("orbit.leibniz_check.s", "s", "s", "orbit:leibniz_check"),
    ("orbit.decompose_Q.s", "s", "s", "orbit:decompose_Q"),
    ("orbit.certify_irreducibility.s", "s", "s", "orbit:certify_irreducibility"),
    ("orbit.quadric_ideal.s", "s", "s", "orbit:quadric_ideal"),
    ("orbit.self_s", "s", "self", "orbit"),
    ("multimatrix.mu_image_span.calls", "count", "calls", "multimatrix:mu_image_span"),
    ("multimatrix.mu_image_span.s", "s", "s", "multimatrix:mu_image_span"),
    ("multimatrix.mu.calls", "count", "calls", "multimatrix:mu"),
    ("multimatrix.self_s", "s", "self", "multimatrix"),
    ("chordal.chordal_ideal.s", "s", "s", "chordal:chordal_ideal"),
    ("chordal.chordal_sample.s", "s", "s", "chordal:chordal_sample"),
    ("chordal.wedge_coordinates.calls", "count", "calls", "chordal:wedge_coordinates"),
    ("chordal.samples_used", "count", "extra", "samples_used"),
    ("chordal.component_analysis.s", "s", "s", "chordal:component_analysis"),
    ("chordal.self_s", "s", "self", "chordal"),
    ("cli.run.s", "s", "s", "cli:run"),
    ("cli.self_s", "s", "self", "cli"),
    ("cli.output_bytes", "bytes", "extra", "output_bytes"),
]

# Metrics also read from the snapshot taken when set-up ends, printed as
# "setup.<name>": the modules that certify and chordal build before their
# first job, which ``setup_s`` times.
SETUP_METRICS = (
    "linalg.mat_mul.calls",
    "linalg.mat_new.calls",
    "reps.derived_rep.builds",
    "reps.verify_homomorphism.calls",
    "reps.verify_homomorphism.s",
)

# Extra counters, each with the wrapped callables it needs and how a
# finished call adds to it: hook(result, keys of the calls made inside it).
_EXTRA = {
    "span_grew": ("linalg:PivotedSpan.add", (), lambda res, seen: int(res is True)),
    "rep_builds": ("reps:derived_rep", ("reps:Rep.__init__",),
                   lambda res, seen: int("reps:Rep.__init__" in seen)),
    "module_misses": ("orbit:orbit_module", ("reps:cyclic_closure",),
                      lambda res, seen: int("reps:cyclic_closure" in seen)),
    "samples_used": ("chordal:chordal_ideal", (), lambda res, seen: res.samples_used),
    "output_bytes": ("cli:run", (), lambda res, seen: len(res[0].encode())),
}


class _Stat:
    __slots__ = ("calls", "seconds", "depth")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.depth = 0


class Tracer:
    """Wraps the layers of the package; ``snapshot`` reads, ``reset`` zeroes."""

    def __init__(self, package: str = PACKAGE, layers=LAYERS):
        self.package = package
        self.layers = tuple(layers)
        self.stats: dict[str, _Stat] = {}
        self.self_time = {layer: 0.0 for layer in self.layers}
        self.extra: dict[str, float] = {}
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []
        self._hooks: dict[str, list[tuple[str, object]]] = {}

    # -- installation -------------------------------------------------------

    def _targets(self):
        """(layer, key, owner, attribute, raw attribute) for each callable."""
        for layer in self.layers:
            try:
                mod = importlib.import_module(f"{self.package}.{layer}")
            except ModuleNotFoundError:
                # a layer that no longer exists reports its metrics missing
                self.self_time.pop(layer, None)
                continue
            source = getattr(mod, "__file__", None)
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not name.startswith("_") and name == obj.__name__:
                    yield layer, f"{layer}:{name}", mod, name, obj
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, raw in list(vars(obj).items()):
                        func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) \
                            else raw
                        if not inspect.isfunction(func) or func.__code__.co_filename != source:
                            continue
                        if attr.startswith("_") and attr not in _DUNDERS:
                            continue
                        yield layer, f"{layer}:{obj.__name__}.{attr}", obj, attr, raw

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, (key, _, hook) in _EXTRA.items():
            self._hooks.setdefault(key, []).append((name, hook))
            self.extra[name] = 0
        modules = [m for n, m in list(sys.modules.items())
                   if n == self.package or n.startswith(self.package + ".")]
        for layer, key, owner, attr, raw in self._targets():
            self.stats[key] = _Stat()
            if isinstance(owner, type):
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(key, layer, raw.__func__))
                elif isinstance(raw, classmethod):
                    new = classmethod(self._wrap(key, layer, raw.__func__))
                else:
                    new = self._wrap(key, layer, raw)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            wrapper = self._wrap(key, layer, raw)
            for mod in modules:
                for gname, value in list(vars(mod).items()):
                    if value is raw:
                        self._saved.append((mod, gname, raw))
                        setattr(mod, gname, wrapper)

    def restore(self) -> None:
        """Put every original binding back."""
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def _wrap(self, key: str, layer: str, func):
        stat = self.stats[key]
        hooks = self._hooks.get(key, ())
        stack = self._stack
        self_time = self.self_time
        extra = self.extra

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frame = [0.0, set()]
            stack.append(frame)
            stat.calls += 1
            stat.depth += 1
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stat.depth -= 1
                stack.pop()
                if not stat.depth:
                    stat.seconds += elapsed
                self_time[layer] += elapsed - frame[0]
                if stack:
                    parent = stack[-1]
                    parent[0] += elapsed
                    parent[1].add(key)
                    if frame[1]:
                        parent[1] |= frame[1]
            for name, hook in hooks:
                extra[name] += hook(result, frame[1])
            return result
        return wrapper

    # -- reading ------------------------------------------------------------

    def reset(self) -> None:
        for stat in self.stats.values():
            stat.calls = 0
            stat.seconds = 0.0
        for layer in self.self_time:
            self.self_time[layer] = 0.0
        for name in self.extra:
            self.extra[name] = 0

    def present(self, kind: str, arg: str) -> bool:
        if kind in ("calls", "s"):
            return arg in self.stats
        if kind == "extra":
            key, needs, _ = _EXTRA[arg]
            return all(k in self.stats for k in (key, *needs))
        return arg in self.self_time

    def snapshot(self) -> dict:
        """Every metric of ``METRICS``; a callable that no longer exists reads None."""
        out = {}
        for name, _, kind, arg in METRICS:
            if not self.present(kind, arg):
                out[name] = None
            elif kind == "calls":
                out[name] = self.stats[arg].calls
            elif kind == "s":
                out[name] = self.stats[arg].seconds
            elif kind == "extra":
                out[name] = self.extra[arg]
            else:
                out[name] = self.self_time[arg]
        return out


def source_lines(src: Path) -> int:
    """Lines of Python under ``src`` (the size figure of the design aim)."""
    return sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py")))
