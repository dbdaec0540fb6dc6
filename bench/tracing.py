"""Spans and counters around the public functions of delshadow.

`Tracer.install` replaces each traced function by a wrapper in every module
that holds it, so calls through `from .x import f` names, module attributes
and recursion through a module global are all seen.  `Family.of` is wrapped
on the class.  Spans stay in memory as (name, start_ns, end_ns, parent, value)
rows and are written out once, when the run ends.

The hottest small functions (`leq_key`, `c_key`, `reduced`) and the recursive
`ones_count_colex` are counted, not timed.  Pool workers are separate
processes, so spans recorded inside them never reach the parent.
"""
from __future__ import annotations

import gzip
import json
import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor

# The checks the `oracle` workload calls; each gets a span.
CHECKS = ("theorem1", "theorem2", "a_t", "conjecture1")

# Per-layer metric -> (source, span or counter name, field); see `pass_metrics`.
LAYER_METRICS = {
    "seqcore.family_of.calls": ("span", "seqcore.family_of", "calls"),
    "seqcore.family_of.members": ("span", "seqcore.family_of", "value"),
    "seqcore.family_of.self_s": ("span", "seqcore.family_of", "self_s"),
    "seqcore.reduced.calls": ("count", "seqcore.reduced", None),
    "orders.initial_segment_leq.calls": ("span", "orders.initial_segment_leq", "calls"),
    "orders.initial_segment_leq.self_s": ("span", "orders.initial_segment_leq", "self_s"),
    "orders.leq_key.calls": ("count", "orders.leq_key", None),
    "orders.c_key.calls": ("count", "orders.c_key", None),
    "shadow.delta_r.calls": ("span", "shadow.delta_r", "calls"),
    "shadow.delta_r.members_in": ("span", "shadow.delta_r", "value"),
    "shadow.delta_r.self_s": ("span", "shadow.delta_r", "self_s"),
    "extremal.compress.calls": ("span", "extremal.compress", "calls"),
    "extremal.compress.effective": ("span", "extremal.compress", "value"),
    "extremal.compress.self_s": ("span", "extremal.compress", "self_s"),
    "extremal.canonicalize.calls": ("span", "extremal.canonicalize", "calls"),
    "extremal.canonicalize.self_s": ("span", "extremal.canonicalize", "self_s"),
    "extremal.min_delta_shadow_size.self_s": ("span", "extremal.min_delta_shadow_size", "self_s"),
    "extremal.ones_count_colex.calls": ("count", "extremal.ones_count_colex", None),
    "famio.read_family.calls": ("span", "famio.read_family", "calls"),
    "famio.read_family.lines": ("span", "famio.read_family", "value"),
    "famio.read_family.self_s": ("span", "famio.read_family", "self_s"),
    "famio.write_family.calls": ("span", "famio.write_family", "calls"),
    "famio.write_family.lines": ("span", "famio.write_family", "value"),
    "famio.write_family.self_s": ("span", "famio.write_family", "self_s"),
    "verify.child_masks.calls": ("span", "verify.child_masks", "calls"),
    "verify.child_masks.self_s": ("span", "verify.child_masks", "self_s"),
    "verify.brute_force_min_shadow.calls": ("span", "verify.brute_force_min_shadow", "calls"),
    "verify.brute_force_min_shadow.instances": ("span", "verify.brute_force_min_shadow", "value"),
    "verify.brute_force_min_shadow.self_s": ("span", "verify.brute_force_min_shadow", "self_s"),
    "verify.pool.created": ("count", "verify.pool.created", None),
    "verify.pool.tasks": ("count", "verify.pool.tasks", None),
    "verify.pool.wait_s": ("span", "verify.pool", "dur_s"),
    **{f"verify.check.{c}.self_s": ("span", f"verify.check.{c}", "self_s") for c in CHECKS},
    "cli.main.calls": ("span", "cli.main", "calls"),
    "cli.main.self_s": ("span", "cli.main", "self_s"),
}


class _CountingWriter:
    """Text stream proxy that counts the lines written through it."""

    def __init__(self, stream):
        self.stream = stream
        self.lines = 0

    def write(self, text):
        self.lines += text.count("\n")
        return self.stream.write(text)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name_id, start_ns, end_ns, parent, value]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.passes: list[tuple] = []  # (first span, end span, counts, config)
        self._pass_start = 0

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([nid, time.perf_counter_ns(), 0, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, value=None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter_ns()
        span[4] = value
        self._stack.pop()

    def spanned(self, name, fn, value=None):
        """Wrap fn in a span; value(args, result) gives the span's count."""

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx)
                raise
            self._close(idx, value(args, result) if value else None)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def begin_pass(self) -> None:
        self.counts.clear()
        self._pass_start = len(self.spans)

    def end_pass(self, config: str) -> None:
        self.passes.append((self._pass_start, len(self.spans), Counter(self.counts), config))

    # -- installation ------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap the public functions of the delshadow modules in `modules`."""
        seqcore, verify = modules["seqcore"], modules["verify"]

        def replace(module_name, attr, make):
            original = getattr(modules[module_name], attr)
            wrapped = make(original)
            for mod in modules.values():
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)

        family_of = seqcore.Family.__dict__["of"].__func__
        seqcore.Family.of = classmethod(
            self.spanned("seqcore.family_of", family_of, lambda a, r: len(r.members))
        )
        for mod, attr in (("seqcore", "reduced"), ("orders", "leq_key"), ("orders", "c_key"),
                          ("extremal", "ones_count_colex")):
            replace(mod, attr, lambda f, n=f"{mod}.{attr}": self.counted(n, f))
        spans = {
            ("orders", "initial_segment_leq"): None,
            ("shadow", "delta_r"): lambda a, r: len(a[0].members),
            ("extremal", "compress"): lambda a, r: int(r.members != a[0].members),
            ("extremal", "canonicalize"): None,
            ("extremal", "min_delta_shadow_size"): None,
            ("verify", "child_masks"): None,
            ("verify", "brute_force_min_shadow"): lambda a, r: r.instances_checked,
            ("cli", "main"): None,
            **{("verify", f"check_{c}"): None for c in CHECKS},
        }
        for (mod, attr), value in spans.items():
            name = f"verify.check.{attr[6:]}" if attr.startswith("check_") else f"{mod}.{attr}"
            replace(mod, attr, lambda f, n=name, v=value: self.spanned(n, f, v))
        replace("famio", "read_family", self._wrap_read)
        replace("famio", "write_family", self._wrap_write)
        verify.ProcessPoolExecutor = self._pool_class()

    def _wrap_read(self, fn):
        def read_family(stream):
            lines = [0]

            def counting():
                for line in stream:
                    lines[0] += 1
                    yield line

            idx = self._open("famio.read_family")
            try:
                result = fn(counting())
            finally:
                self._close(idx, lines[0])
            return result

        return read_family

    def _wrap_write(self, fn):
        def write_family(a, stream):
            writer = _CountingWriter(stream)
            idx = self._open("famio.write_family")
            try:
                return fn(a, writer)
            finally:
                self._close(idx, writer.lines)

        return write_family

    def _pool_class(self):
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            """Counts pools and tasks; a `verify.pool` span runs from `map`
            to the end of shutdown, the time the caller waits on the pool."""

            def __init__(self, *args, **kwargs):
                tracer.counts["verify.pool.created"] += 1
                self._span = None
                super().__init__(*args, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                iterables = [list(it) for it in iterables]
                tracer.counts["verify.pool.tasks"] += len(iterables[0])
                if self._span is None:
                    self._span = tracer._open("verify.pool")
                return super().map(fn, *iterables, **kwargs)

            def shutdown(self, *args, **kwargs):
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    if self._span is not None:
                        tracer._close(self._span)
                        self._span = None

        return TracedPool

    # -- reduction ---------------------------------------------------------

    def pass_metrics(self, i: int) -> dict:
        """Per-layer metrics of traced pass i: counts, and self time as a
        span's duration minus the time its child spans cover."""
        first, end, counts, _ = self.passes[i]
        agg = defaultdict(lambda: {"calls": 0, "value": 0, "self_s": 0.0, "dur_s": 0.0})
        child_ns = defaultdict(int)
        for idx in range(end - 1, first - 1, -1):  # children close before parents
            nid, start, stop, parent, value = self.spans[idx]
            dur = stop - start
            if parent >= first:
                child_ns[parent] += dur
            a = agg[self.names[nid]]
            a["calls"] += 1
            a["value"] += value or 0
            a["dur_s"] += dur / 1e9
            a["self_s"] += (dur - child_ns.pop(idx, 0)) / 1e9
        return {
            metric: counts.get(name, 0) if source == "count" else agg[name][field]
            for metric, (source, name, field) in LAYER_METRICS.items()
        }

    def write(self, path, config: dict) -> None:
        """Write every recorded span, with the configuration it ran under."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            json.dump(
                {
                    "config": config,
                    "columns": ["name", "start_ns", "end_ns", "parent", "value"],
                    "names": self.names,
                    "passes": [{"first": a, "end": b, "config": c} for a, b, _, c in self.passes],
                    "spans": self.spans,
                },
                f,
            )
