"""Span tracing of qchan's layers, installed from outside the package.

The tracer wraps the public functions that ``qchan.cli`` calls into each
layer and records one span per outermost call: name, start, end, parent
span and thread id.  A call into a layer from inside the same layer (for
example ``classify_region`` calling ``ppt_test``) runs untraced, so a
layer's time is never counted twice.  Three helpers that run many times
per item (``renyi``, ``check_probabilities``, ``spectrum_probabilities``)
are only counted, never timed, to keep the overhead small.

Nothing in ``src/`` changes: :meth:`Tracer.install` patches module and
class attributes and :meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from typing import NamedTuple

# Layer names, in pipeline order.  Each is reported as ``<layer>_s`` (busy
# seconds summed over threads, excluding child spans of the same thread) and
# ``<layer>_self_s`` (its share of the traced ``cli.main`` wall time), except
# the sigma1 search: only verify runs it, and a time that is zero on every
# scan run would read the same on every run, so it is reported as
# ``bounds.sigma1_search_share`` (self time over ``cli.main_s``) and
# ``bounds.sigma1_search_calls``.
LAYERS = (
    "zoo.sample",
    "channels.construct",
    "channels.spectra",
    "entropy.point",
    "bounds.evaluate",
    "bounds.sigma1_search",
    "separability.classify",
)
ROOT = "cli.main"

# Entry points that cli's scan and verify commands call, by module attribute.
# Patching the attribute also routes the module's own calls through the
# wrapper; those are same-layer calls and run untraced.
_ENTRY_POINTS = {
    "zoo.sample": (
        "qchan.zoo",
        (
            "rng_substream",
            "random_cptp",
            "random_bistochastic",
            "random_pauli_channel",
            "random_interval_channel",
            "random_reshuffle_invariant",
            "identity_channel",
            "depolarizing",
            "coarse_graining",
            "maximally_depolarizing",
            "pauli_channel",
            "depolarizing_curve_point",
        ),
    ),
    "entropy.point": ("qchan.entropy", ("entropy_point", "map_entropy", "receiver_entropy")),
    "bounds.evaluate": (
        "qchan.bounds",
        ("evaluate_all", "spectral_entropy_bounds", "reordered_entropy_bounds"),
    ),
    "bounds.sigma1_search": ("qchan.bounds", ("sigma1_variational",)),
    "separability.classify": (
        "qchan.separability",
        ("classify_region", "ppt_test", "realignment_test", "separable_criteria"),
    ),
}

# Construction functions, patched wherever a qchan module holds them (zoo and
# cli import them by name), plus ``Channel.__init__`` on the class.
_CONSTRUCTORS = ("from_environment", "from_kraus", "from_superoperator", "from_choi")

# Counted helpers, patched wherever a qchan module holds them.
_COUNTED = {
    "renyi": "entropy.renyi",
    "check_probabilities": "entropy.validate",
    "spectrum_probabilities": "entropy.validate",
}


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    failed: bool


class Tracer:
    """Records spans and counts for one ``cli.main`` invocation at a time."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[Span] = []
        self._counts: list[dict[str, int]] = []  # one dict per thread
        self.records = 0
        self.error_records = 0
        self._root: int | None = None

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, key: str) -> None:
        counts = getattr(self._local, "counts", None)
        if counts is None or counts.get("_call") != self._root:
            counts = self._local.counts = {"_call": self._root}
            with self._lock:
                self._counts.append(counts)
        counts[key] = counts.get(key, 0) + 1

    @property
    def counts(self) -> dict[str, int]:
        """Counts of the last call, summed over threads."""
        total: dict[str, int] = {}
        for counts in self._counts:
            for key, value in counts.items():
                if key != "_call":
                    total[key] = total.get(key, 0) + value
        return total

    def call(self, name: str, fn, args, kwargs, prelude=None, after=None):
        """Run ``fn`` inside a span named ``name`` unless already inside one.

        ``after(result)`` runs on the result of an outermost call only.
        """
        stack = self._stack()
        if stack and stack[-1][1] == name:
            return fn(*args, **kwargs)
        sid = next(self._ids)
        parent = stack[-1][0] if stack else self._root
        stack.append((sid, name))
        failed = True
        start = time.perf_counter()
        try:
            if prelude is not None:
                prelude(*args)
            result = fn(*args, **kwargs)
            failed = False
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, threading.get_ident(), failed))
        if after is not None:
            after(result)
        return result

    def run_root(self, fn, *args):
        """Run one ``cli.main`` call as the root span; return its result."""
        self.spans = []
        self._counts = []
        self.records = 0
        self.error_records = 0
        sid = next(self._ids)
        self._root = sid
        self._stack().append((sid, ROOT))
        failed = True
        start = time.perf_counter()
        try:
            result = fn(*args)
            failed = False
            return result
        finally:
            end = time.perf_counter()
            self._stack().pop()
            self._root = None
            self.spans.append(Span(sid, ROOT, start, end, None, threading.get_ident(), failed))

    # -- installing ------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, name: str, fn, prelude=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, prelude, after)

        return wrapper

    def _count_wrapper(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(key)
            return fn(*args, **kwargs)

        return wrapper

    def _spectra(self, ch, *_):
        # Force the lazily cached spectra in a child span so their cost is
        # reported apart from the entropy and bound arithmetic.  Both entry
        # points that do this read both spectra anyway; an error is left for
        # the wrapped function to meet and report in its own way.
        def force(c):
            for attr in ("singular_values", "output_eigenvalues"):
                try:
                    getattr(c, attr)
                except Exception:  # noqa: BLE001 - the tracer must not change behaviour
                    pass

        self.call("channels.spectra", force, (ch,), {})

    def _on_records(self, result) -> None:
        records = getattr(result, "records", result)
        errors = sum(1 for r in records if r.id.endswith("_error"))
        with self._lock:
            self.records += len(records)
            self.error_records += errors

    def install(self) -> None:
        import qchan.channels  # noqa: F401 - make sure every layer is loaded
        import qchan.cli  # noqa: F401

        modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("qchan.") and m]
        for layer, (module_name, names) in _ENTRY_POINTS.items():
            module = sys.modules[module_name]
            for attr in names:
                fn = getattr(module, attr)
                prelude = self._spectra if attr in ("entropy_point", "evaluate_all") else None
                after = self._on_records if layer == "bounds.evaluate" else None
                self._patch(module, attr, self._span_wrapper(layer, fn, prelude, after))

        channel_cls = qchan.channels.Channel
        self._patch(
            channel_cls, "__init__", self._span_wrapper("channels.construct", channel_cls.__init__)
        )
        targets = {}
        for attr in _CONSTRUCTORS:
            fn = getattr(qchan.channels, attr)
            targets[id(fn)] = self._span_wrapper("channels.construct", fn)
        for attr, key in _COUNTED.items():
            fn = getattr(qchan.entropy, attr)
            targets[id(fn)] = self._count_wrapper(key, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# aggregation


def layer_times(spans: list[Span]) -> dict[str, float]:
    """Busy and self seconds per layer, plus ``cli.self_s`` and ``cli.main_s``.

    Busy time (``<layer>_s``) is each span's duration minus its child spans
    in the same thread, summed over threads.  Self time (``<layer>_self_s``)
    splits the root's wall time: at each instant the time goes in equal
    shares to the innermost open span of every thread that has one, and to
    ``cli.self_s`` when no thread is inside a layer span.  Self times plus
    ``cli.self_s`` therefore add up to ``cli.main_s``.
    """
    root = next(s for s in spans if s.name == ROOT)
    by_id = {s.id: s for s in spans}
    busy = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        if s.name != ROOT:
            busy[s.name] += s.end - s.start
            parent = by_id.get(s.parent)
            if parent is not None and parent.name != ROOT and parent.thread == s.thread:
                busy[parent.name] -= s.end - s.start

    events = []
    for s in spans:
        if s.name != ROOT:
            events.append((s.start, 1, s))
            events.append((s.end, 0, s))
    events.sort(key=lambda e: (e[0], e[1]))
    share = {layer: 0.0 for layer in LAYERS}
    cli_self = 0.0
    stacks: dict[int, list[Span]] = {}
    last = root.start
    for t, is_start, s in events:
        active = [stack[-1].name for stack in stacks.values() if stack]
        dt = t - last
        if active:
            for name in active:
                share[name] += dt / len(active)
        else:
            cli_self += dt
        last = t
        stack = stacks.setdefault(s.thread, [])
        if is_start:
            stack.append(s)
        else:
            stack.remove(s)
    cli_self += root.end - last

    out = {}
    for layer in LAYERS:
        out[f"{layer}_s"] = busy[layer]
        out[f"{layer}_self_s"] = share[layer]
    out["cli.self_s"] = cli_self
    out["cli.main_s"] = root.end - root.start
    return out


# Per-layer counts; ``*_per_item`` divides by the call's items.
COUNT_UNITS = {
    "zoo.sample_calls": "count",
    "channels.construct_calls": "count",
    "channels.construct_failed": "count",
    "entropy.renyi_calls_per_item": "calls/item",
    "entropy.validate_calls_per_item": "calls/item",
    "bounds.records_per_item": "records/item",
    "bounds.error_records": "count",
    "trace.threads": "count",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {}
    for layer in LAYERS:
        if layer != "bounds.sigma1_search":
            units[f"{layer}_s"] = "s"
            units[f"{layer}_self_s"] = "s"
    units["bounds.sigma1_search_share"] = "ratio"
    units["bounds.sigma1_search_calls"] = "count"
    units["cli.self_s"] = "s"
    units["cli.main_s"] = "s"
    units.update(COUNT_UNITS)
    units["trace.overhead_frac"] = "ratio"
    return units


def layer_metrics(tracer: Tracer, items: int) -> dict[str, float]:
    """Per-layer metrics of the tracer's last call, which produced ``items``.

    Includes ``trace.unaccounted_s``, the self times plus ``cli.self_s``
    minus ``cli.main_s``, which must be zero up to rounding.
    """
    spans = tracer.spans
    out = layer_times(spans)
    out["trace.unaccounted_s"] = (
        sum(out[f"{layer}_self_s"] for layer in LAYERS) + out["cli.self_s"] - out["cli.main_s"]
    )
    del out["bounds.sigma1_search_s"]
    out["bounds.sigma1_search_share"] = out.pop("bounds.sigma1_search_self_s") / out["cli.main_s"]
    out["bounds.sigma1_search_calls"] = sum(1 for s in spans if s.name == "bounds.sigma1_search")
    construct = [s for s in spans if s.name == "channels.construct"]
    out["zoo.sample_calls"] = sum(1 for s in spans if s.name == "zoo.sample")
    out["channels.construct_calls"] = len(construct)
    out["channels.construct_failed"] = sum(1 for s in construct if s.failed)
    out["entropy.renyi_calls_per_item"] = tracer.counts.get("entropy.renyi", 0) / items
    out["entropy.validate_calls_per_item"] = tracer.counts.get("entropy.validate", 0) / items
    out["bounds.records_per_item"] = tracer.records / items
    out["bounds.error_records"] = tracer.error_records
    out["trace.threads"] = len({s.thread for s in spans})
    return out
