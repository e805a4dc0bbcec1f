"""Span tracer for the traced benchmark run.

The tracer wraps the layers' public functions from outside the package: it
replaces every binding of a function in the ``permutoria`` modules (the
defining module and each module that imported the name) and restores them
on ``uninstall``.  Three kinds of wrapper exist:

* ``timed``: a span with a name, start, end, parent span and op id.  Its
  self time is its duration minus the time of the spans inside it.  Spans of
  fine-grained calls (``record=False``) are timed the same way but not kept
  as records.
* ``timed_iter``: for functions returning a generator; the time spent
  inside each ``next()`` is a span of that name, and each item is counted.
* ``counted``: per-element calls, counted only.

An exception leaving a wrapped call into a frame of another layer counts as
``<layer>.errors``, where the layer is the package module.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from functools import wraps
from typing import Callable

clock = time.perf_counter
MAX_RECORDS = 500_000  # spans kept in memory; later ones are only counted as dropped


class Tracer:
    def __init__(self):
        # open frames: [child time, id of the nearest recorded span, layer, name]
        self.stack: list[list] = []
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.outer_calls: defaultdict[str, int] = defaultdict(int)  # not inside a span of that name
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.records: list[tuple] = []
        self.dropped = 0
        self.op_id = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- accounting ----------------------------------------------------------
    def _open(self, name: str, layer: str, record: bool) -> tuple[list, list | None, int]:
        stack = self.stack
        parent = stack[-1] if stack else None
        parent_rec = parent[1] if parent is not None else -1
        rec_id = len(self.records) + self.dropped if record else parent_rec
        frame = [0.0, rec_id, layer, name]
        stack.append(frame)
        return frame, parent, parent_rec

    def _close(self, name, frame, parent, parent_rec, start, record) -> None:
        end = clock()
        self.stack.pop()
        dur = end - start
        self.self_time[name] += dur - frame[0]
        self.calls[name] += 1
        if parent is None or parent[3] != name:
            self.outer_calls[name] += 1
        if parent is not None:
            parent[0] += dur
        if record:
            if len(self.records) < MAX_RECORDS:
                self.records.append((frame[1], name, start, end, parent_rec, self.op_id))
            else:
                self.dropped += 1

    def _error(self, layer: str) -> None:
        if not self.stack or self.stack[-1][2] != layer:
            self.counts[layer + ".errors"] += 1

    # -- wrappers --------------------------------------------------------------
    def timed(
        self,
        name: str,
        fn: Callable,
        record: bool = True,
        tally: tuple[str, Callable[[object], int]] | None = None,
    ) -> Callable:
        """Span around each call; ``tally`` adds f(result) to a counter."""
        tracer = self
        layer = name.split(".")[0]

        @wraps(fn)
        def wrapper(*args, **kwargs):
            frame, parent, parent_rec = tracer._open(name, layer, record)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer._close(name, frame, parent, parent_rec, start, record)
                tracer._error(layer)
                raise
            tracer._close(name, frame, parent, parent_rec, start, record)
            if tally is not None:
                tracer.counts[tally[0]] += tally[1](result)
            return result

        return wrapper

    def timed_iter(self, name: str, count_name: str, fn: Callable) -> Callable:
        tracer = self
        layer = name.split(".")[0]

        def steps(gen):
            while True:
                frame, parent, parent_rec = tracer._open(name, layer, False)
                start = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    tracer._close(name, frame, parent, parent_rec, start, False)
                    return
                except Exception:
                    tracer._close(name, frame, parent, parent_rec, start, False)
                    tracer._error(layer)
                    raise
                tracer._close(name, frame, parent, parent_rec, start, False)
                tracer.counts[count_name] += 1
                yield item

        @wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                gen = fn(*args, **kwargs)
            except Exception:
                tracer._error(layer)
                raise
            return steps(gen)

        return wrapper

    def counted(self, count_name: str, fn: Callable) -> Callable:
        counts = self.counts
        tracer = self
        layer = count_name.split(".")[0]

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[count_name] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                tracer._error(layer)
                raise

        return wrapper

    def span(self, name: str, fn: Callable[[], object]) -> object:
        """Run fn() inside a recorded span (used for whole ops)."""
        return self.timed(name, fn)()

    # -- installing --------------------------------------------------------------
    def patch_function(self, original: Callable, wrapper: Callable) -> None:
        """Rebind every module-level reference to ``original`` in the package."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "permutoria" or mod_name.startswith("permutoria.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def patch_attribute(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "start", "end", "parent", "op"],
                    "dropped": self.dropped,
                    "spans": self.records,
                },
                fh,
            )


def install_layers(tracer: Tracer) -> None:
    """Wrap the public functions of each layer (see README.md for the map
    from these names to the per-layer metrics)."""
    from permutoria import bijections, counting, gengraph, involutions, kernels, permcore, series, tableau

    def timed(module, names, span, record=True, tally=None):
        for name in names:
            original = getattr(module, name)
            tracer.patch_function(original, tracer.timed(span, original, record, tally))

    timed(kernels, ("count_avoiders_raw", "count_da_raw"), "kernels.count")
    for name in ("enumerate_avoiders", "enumerate_da"):
        original = getattr(counting, name)
        tracer.patch_function(
            original, tracer.timed_iter("counting.enumerate", "counting.objects_enumerated", original)
        )
    timed(counting, ("extended_table",), "counting.extended_table",
          tally=("counting.extended_cells", len))
    timed(series, ("expand_rational",), "series.expand")
    timed(permcore, ("children_with_kinds",), "permcore.children", record=False)
    timed(gengraph, ("discover_graph",), "gengraph.discover",
          tally=("gengraph.classes_discovered", lambda res: len(res[0].classes)))
    timed(gengraph, ("validate_graph",), "gengraph.validate")
    timed(gengraph, ("walk_series",), "gengraph.walk_series")
    timed(gengraph, ("graph_isomorphic",), "gengraph.iso")
    timed(gengraph, ("walk_encode", "walk_decode"), "gengraph.codec")
    timed(bijections, ("phi", "phi_inverse", "theta", "theta_inverse", "psi", "psi_inverse"),
          "bijections.map")
    for name in ("enumerate_ssyt", "enumerate_lr"):
        original = getattr(tableau, name)
        tracer.patch_function(
            original, tracer.timed_iter("tableau.enumerate", "tableau.objects_enumerated", original)
        )
    tracer.patch_attribute(
        tableau.SkewTableau,
        "__post_init__",
        tracer.counted("tableau.validations", tableau.SkewTableau.__post_init__),
    )
    tracer.patch_function(
        involutions.bender_knuth, tracer.counted("involutions.bk_generators", involutions.bender_knuth)
    )
    timed(involutions, ("apply_bk_word", "schuetzenberger"), "involutions.bk")
    timed(involutions, ("tableau_switch",), "involutions.switch")
    timed(involutions, ("evacuation", "jdt", "jdt_random_order", "tableau_switch_sliding"),
          "involutions.slide")
    timed(involutions, ("verify_diagram", "rho", "rho_dual", "reversal", "reversal_with", "omega"),
          "involutions.diagram")
    timed(involutions, ("rsk_matrix", "rsk_matrix_inverse", "rsk_tableau", "rsk_tableau_inverse"),
          "involutions.rsk")
