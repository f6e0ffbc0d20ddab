"""Spans and counts at the layer boundaries of ``sivkit``, recorded from outside.

`install` replaces each listed function with a wrapper at every place a
caller looks it up: module attributes of every loaded ``sivkit`` module (so
``from .spectra import char_poly`` bindings are covered too) and class
attributes for methods.  The program itself is not changed, and `restore`
puts the originals back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

# Layer boundaries that get a span, by module.  Calls inside a module that
# go through a wrapped name (recursion included) get spans of their own.
SPANNED = {
    "cli": ("main",),
    "fileio": ("load_sg", "load_sk"),
    "enumeration": ("iter_signed_graphs", "random_signed_graph"),
    "graphs": ("SignedGraph.add_edge", "switch_at", "make_centered"),
    "spectra": (
        "signed_laplacian",
        "char_poly",
        "laplacian_char_poly",
        "integer_spectrum",
        "siv_oracle",
        "verify_shift_identity",
    ),
    "sivcheck": ("classify", "check_type2"),
    "completion": ("x_set", "y_set", "is_sigma_completable", "plan_completion"),
}

# Constructors too hot for a span: counted only.  A SignedGraph built while a
# classify or siv_oracle span is open is also counted as a per-instance copy.
COUNTED = {
    "polynomials": ("IntPoly.__post_init__",),
    "graphs": ("SignedGraph.__post_init__",),
}
INSTANCE_SPANS = frozenset({"sivcheck.classify", "spectra.siv_oracle"})

MAX_KEPT_SPANS = 20_000


class Tracer:
    """Aggregates spans as they close; keeps the first spans for writing out.

    A span's self time is its duration minus the time covered by its direct
    children, which is exact for properly nested spans.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.child_calls: Counter = Counter()  # (parent name, child name) -> calls
        self.counts: Counter = Counter()
        self.open_names: Counter = Counter()
        self.kept: list[tuple] = []  # (span id, parent id, root id, name, start, end)
        self._stack: list[list] = []  # [name, start, child time, id, root id]
        self._next_id = 0

    def enter(self, name: str) -> None:
        self._next_id += 1
        root = self._stack[0][3] if self._stack else self._next_id
        self._stack.append([name, self.clock(), 0.0, self._next_id, root])
        self.open_names[name] += 1

    def exit(self) -> None:
        end = self.clock()
        name, start, child_time, span_id, root = self._stack.pop()
        self.open_names[name] -= 1
        duration = end - start
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - child_time
        parent = None
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1]
            self.child_calls[(parent[0], name)] += 1
        if len(self.kept) < MAX_KEPT_SPANS:
            self.kept.append((span_id, parent[3] if parent else None, root, name, start, end))

    def count(self, name: str) -> None:
        self.counts[name] += 1

    def inside(self, names: frozenset) -> bool:
        return any(self.open_names[n] for n in names)


def _span_wrapper(tracer: Tracer, name: str, fn):
    if inspect.isgeneratorfunction(fn):
        # The work of a generator happens on each next(): one span per item.
        @functools.wraps(fn)
        def traced_generator(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                tracer.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.exit()
                tracer.count(name + ".items")
                yield item

        return traced_generator

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()

    return traced


def _count_wrapper(tracer: Tracer, name: str, fn):
    copies = name == "graphs.SignedGraph.__post_init__"

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tracer.count(name)
        if copies and tracer.inside(INSTANCE_SPANS):
            tracer.count("graphs.instance_copies")
        return fn(*args, **kwargs)

    return counted


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every listed function wherever it is bound; return the undo list.

    Raises LookupError if a listed function does not exist, so a rename in
    the program fails the traced run instead of reading zero.
    """
    modules = [m for key, m in sorted(sys.modules.items()) if key == "sivkit" or key.startswith("sivkit.")]
    undo: list[tuple[object, str, object]] = []
    for table, make in ((SPANNED, _span_wrapper), (COUNTED, _count_wrapper)):
        for layer, names in table.items():
            home = sys.modules[f"sivkit.{layer}"]
            for dotted in names:
                owner_name, _, attr = dotted.rpartition(".")
                owner = getattr(home, owner_name) if owner_name else home
                original = vars(owner).get(attr)
                if original is None:
                    raise LookupError(f"sivkit.{layer}.{dotted} not found")
                wrapper = make(tracer, f"{layer}.{dotted}", original)
                # A method is looked up on its class; a function wherever a
                # module bound it, under any name.
                for site in [owner] if owner_name else modules:
                    for key, value in list(vars(site).items()):
                        if value is original:
                            undo.append((site, key, original))
                            setattr(site, key, wrapper)
    return undo


def restore(undo: list[tuple[object, str, object]]) -> None:
    for site, key, original in reversed(undo):
        setattr(site, key, original)
