"""In-memory spans at the benchmark's calls into the package layers.

A span is recorded for every call the benchmark makes into a public
function of a layer (`exact`, `billiard`, `origami`, `lift`, `experiments`,
`svg`), named `layer.function`, with its start and end on the
`time.perf_counter` clock, the item span that caused it and the item id.
Item spans are named `item.<kind>` and cover one whole item.  Calls made
while the inputs are prepared belong to no item.

With tracing off, `Tracer.call` is a plain call and records nothing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

LAYERS = ("exact", "billiard", "origami", "lift", "experiments", "svg")


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self._item = None  # (span id, item id) of the item being run

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        error = None
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            parent, item = self._item if self._item else (None, None)
            self.spans.append({"name": name, "start": start, "end": end,
                               "parent": parent, "item": item,
                               "error": error})

    @contextmanager
    def item(self, item_id: int, kind: str):
        """Span of one item; yields nothing, records only when enabled."""
        if not self.enabled:
            yield
            return
        span = {"name": f"item.{kind}", "start": time.perf_counter(),
                "end": None, "parent": None, "item": item_id, "error": None}
        self.spans.append(span)
        self._item = (len(self.spans) - 1, item_id)
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._item = None


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return "bench" if head == "item" else head


def self_times(spans: list) -> dict:
    """Self time per layer inside item spans, plus the items' total time.

    A span's self time is its duration minus the time its child spans
    cover; the benchmark's own work between layer calls is the item
    span's self time and is booked to `bench`.
    """
    child_time = {}
    for sp in spans:
        if sp["parent"] is not None:
            child_time[sp["parent"]] = (child_time.get(sp["parent"], 0.0)
                                        + sp["end"] - sp["start"])
    out = {}
    total = 0.0
    for sid, sp in enumerate(spans):
        if sp["item"] is None:
            continue  # set-up calls are not part of the timed wall time
        dur = sp["end"] - sp["start"]
        if sp["parent"] is None:
            total += dur
        layer = layer_of(sp["name"])
        out[layer] = out.get(layer, 0.0) + dur - child_time.get(sid, 0.0)
    return {"self_s": out, "items_s": total}


def busy_by_name(spans: list) -> dict:
    """Summed duration and call count per `layer.function` name,
    set-up calls included; item spans are left out."""
    out = {}
    for sp in spans:
        if sp["name"].startswith("item."):
            continue
        calls, busy = out.get(sp["name"], (0, 0.0))
        out[sp["name"]] = (calls + 1, busy + sp["end"] - sp["start"])
    return out
