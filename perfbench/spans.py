"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions of the ``repro`` layers from the
benchmark's side (no program code is edited): each wrapped call opens a
span carrying ``(span_id, parent_id, query_id, name, start_ns, end_ns)``.
The parent is the innermost open span on the same thread and the query
id is the id of that thread's outermost open span, so every span of one
query execution shares it.

Spans are appended to a flat ``array('q')`` (six integers per span,
bounded by ``capacity``) and written out once, at exit, by
:meth:`SpanRecorder.dump`.  Per-name aggregates — calls, total time,
self time (duration minus the time covered by child spans), the longest
call and an optional per-call "units" count — are kept per thread and
merged on demand, so they stay exact even after the raw buffer is full.

Patches are planned once (:meth:`SpanRecorder.patch`) and switched on
and off with :meth:`install` / :meth:`remove`, which lets one process
alternate traced and untraced windows.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from array import array
from pathlib import Path

#: Fields of one recorded span, in storage order.
SPAN_FIELDS = ("span_id", "parent_id", "query_id", "name", "start_ns", "end_ns")

# indexes into a per-name aggregate list
CALLS, TOTAL_NS, SELF_NS, MAX_NS, UNITS = range(5)


class SpanRecorder:
    """Records spans around patched functions; see the module docstring."""

    def __init__(self, capacity: int = 1_000_000):
        self.capacity = capacity
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans = array("q")
        self.dropped = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._thread_stats: list[dict[int, list[int]]] = []
        self._lock = threading.Lock()
        self._plan: list[tuple[object, str, object, object]] = []
        self.installed = False

    # ------------------------------------------------------------------
    # patch planning and switching
    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, layer: str, observe=None) -> None:
        """Plan a wrapper around ``owner.attr`` (a class or a module).

        ``attr`` must live in ``owner``'s own namespace: patching at the
        name the caller resolves is what makes the wrapper see the call.
        ``observe(args, result)`` returns a number added to the name's
        units (``args`` includes ``self`` for methods).
        """
        raw = vars(owner)[attr]
        owner_name = owner.__name__.rsplit(".", 1)[-1]
        label = f"{layer}:{owner_name}.{attr}"
        name_id = self._name_id(label)
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(name_id, raw.__func__, observe))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self._wrap(name_id, raw.__func__, observe))
        else:
            new = self._wrap(name_id, raw, observe)
        self._plan.append((owner, attr, raw, new))

    def install(self) -> None:
        for owner, attr, _raw, new in self._plan:
            setattr(owner, attr, new)
        self.installed = True

    def remove(self) -> None:
        for owner, attr, raw, _new in reversed(self._plan):
            setattr(owner, attr, raw)
        self.installed = False

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _name_id(self, label: str) -> int:
        name_id = self._name_ids.get(label)
        if name_id is None:
            name_id = self._name_ids[label] = len(self.names)
            self.names.append(label)
        return name_id

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {})
            with self._lock:
                self._thread_stats.append(state[1])
        return state

    def _wrap(self, name_id: int, fn, observe):
        recorder = self
        clock = time.perf_counter_ns
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, stats = recorder._thread_state()
            span_id = next(ids)
            if stack:
                parent_id, query_id = stack[-1][0], stack[-1][1]
            else:
                parent_id, query_id = 0, span_id
            frame = [span_id, query_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][2] += duration
                agg = stats.get(name_id)
                if agg is None:
                    agg = stats[name_id] = [0, 0, 0, 0, 0]
                agg[CALLS] += 1
                agg[TOTAL_NS] += duration
                agg[SELF_NS] += duration - frame[2]
                if duration > agg[MAX_NS]:
                    agg[MAX_NS] = duration
                if len(spans) < 6 * recorder.capacity:
                    spans.extend((span_id, parent_id, query_id, name_id, start, end))
                else:
                    recorder.dropped += 1
            if observe is not None:
                agg[UNITS] += observe(args, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # reading back
    # ------------------------------------------------------------------
    def totals(self) -> dict[str, list[int]]:
        """Per-name aggregates merged across threads."""
        merged: dict[str, list[int]] = {}
        with self._lock:
            per_thread = [dict(stats) for stats in self._thread_stats]
        for stats in per_thread:
            for name_id, agg in stats.items():
                into = merged.setdefault(self.names[name_id], [0, 0, 0, 0, 0])
                for i in (CALLS, TOTAL_NS, SELF_NS, UNITS):
                    into[i] += agg[i]
                into[MAX_NS] = max(into[MAX_NS], agg[MAX_NS])
        return merged

    def layer(self, layer: str, function: str | None = None) -> list[int]:
        """Aggregate over one layer (optionally one ``Owner.attr`` in it)."""
        out = [0, 0, 0, 0, 0]
        for label, agg in self.totals().items():
            name_layer, _, name_fn = label.partition(":")
            if name_layer != layer or (function and name_fn != function):
                continue
            for i in (CALLS, TOTAL_NS, SELF_NS, UNITS):
                out[i] += agg[i]
            out[MAX_NS] = max(out[MAX_NS], agg[MAX_NS])
        return out

    def records(self) -> list[tuple[int, ...]]:
        """The raw spans as ``SPAN_FIELDS`` tuples."""
        flat = self.spans
        return [tuple(flat[i : i + 6]) for i in range(0, len(flat), 6)]

    def dump(self, path: Path) -> None:
        """Write the spans (native-endian int64) plus a name index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            self.spans.tofile(fh)
        index = path.with_suffix(".names.txt")
        index.write_text(
            "fields: " + " ".join(SPAN_FIELDS) + "\n"
            + f"dropped: {self.dropped}\n"
            + "".join(f"{i} {name}\n" for i, name in enumerate(self.names))
        )
