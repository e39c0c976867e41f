"""Span tracing from outside the program, for the per-layer table.

The tracer replaces a layer's public entry points (class methods and
module functions) with thin wrappers that record one span per call:
a name, a start and an end on the host clock, the span that was open
when it began (its parent) and the id of the op it belongs to. Spans
live in flat in-memory arrays and are written out once, when the run
ends. A layer's self time is the sum of its spans' durations minus the
part of each covered by its child spans.

Call counts, and counts read from a call's result (routes that ran a
discovery, access attempts), are kept in :attr:`SpanTracer.counts`.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

_clock = time.perf_counter


class SpanTracer:
    """Records spans and counts at the wrapped boundaries."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _spanned(self, fn: Callable, name: str,
                 after: Optional[Callable[[Any, Any], None]]) -> Callable:
        name_id = self._name_id(name)
        stack = self._stack
        name_of, start, end = self.name_of, self.start, self.end
        parent, op = self.parent, self.op
        counts = self.counts
        calls_key = name + ".calls"

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            counts[calls_key] += 1
            start.append(_clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = _clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, owner: Any, attr: str, name: str,
             after: Optional[Callable[[Any, Any], None]] = None,
             importers: bool = True) -> None:
        """Record a span around every call of ``owner.attr``.

        ``owner`` is a class (the method is replaced for every instance)
        or a module. A module-level function is also replaced in every
        loaded ``repro`` module that imported it by name, unless
        ``importers`` is false. ``after`` gets the call's arguments and
        result, to take counts at the boundary.
        """
        original = getattr(owner, attr)
        wrapper = self._spanned(original, name, after)
        if isinstance(owner, type) or not importers:
            self._patch(owner, attr, wrapper)
            return
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, attr, None) is original):
                self._patch(module, attr, wrapper)

    def count(self, owner: type, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without a span (hot, tiny calls)."""
        original = getattr(owner, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_of, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def self_times(self) -> Dict[str, float]:
        """Per span name: total duration minus what child spans cover."""
        spans = self.arrays()
        if len(spans["start"]) == 0:
            return {}
        dur = spans["end"] - spans["start"]
        has_parent = spans["parent"] >= 0
        child = np.bincount(spans["parent"][has_parent],
                            weights=dur[has_parent], minlength=len(dur))
        per_name = np.bincount(spans["name"], weights=dur - child,
                               minlength=len(self.names))
        return {name: float(per_name[i]) for i, name in enumerate(self.names)}

    def inclusive_times(self) -> Dict[str, float]:
        """Per span name: total duration of its outermost spans only."""
        spans = self.arrays()
        out: Dict[str, float] = {}
        if len(spans["start"]) == 0:
            return out
        names, parents = spans["name"], spans["parent"]
        dur = spans["end"] - spans["start"]
        for i, name in enumerate(self.names):
            mine = names == i
            # A span whose parent has the same name is nested in one that
            # already counts its time (recursion).
            nested = np.zeros(len(names), dtype=bool)
            has_parent = parents >= 0
            nested[has_parent] = names[parents[has_parent]] == i
            out[name] = float(dur[mine & ~nested].sum())
        return out

    def time_under(self, names: Tuple[str, ...], within: str,
                   outside: Tuple[str, ...] = ()) -> float:
        """Duration of the outermost ``names`` spans nested in ``within``.

        Spans with an ancestor in ``outside`` are left out, as are spans
        nested in another span of ``names`` (their time is counted once).
        """
        spans = self.arrays()
        ids = {name: i for i, name in enumerate(self.names)}
        wanted = {ids[n] for n in names if n in ids}
        stop = {ids[n] for n in outside if n in ids}
        home = ids.get(within)
        if home is None or not wanted:
            return 0.0
        name_of, parent = spans["name"], spans["parent"]
        dur = spans["end"] - spans["start"]
        total = 0.0
        for idx in np.flatnonzero(np.isin(name_of, list(wanted))):
            up = parent[idx]
            inside = False
            while up >= 0:
                kind = name_of[up]
                if kind in wanted or kind in stop:
                    break
                if kind == home:
                    inside = True
                    break
                up = parent[up]
            if inside:
                total += float(dur[idx])
        return total

    def save(self, path: str) -> None:
        """Write the spans (compressed arrays plus the name table)."""
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            **self.arrays())


def _route_after(tracer: SpanTracer) -> Callable[[Any, Any], None]:
    def after(args: Any, result: Any) -> None:
        # A route that paid routing control messages ran a discovery.
        if result.routing_messages > 0:
            tracer.counts["simnet.route.discoveries"] += 1
    return after


def _attempts_after(tracer: SpanTracer) -> Callable[[Any, Any], None]:
    def after(args: Any, result: Any) -> None:
        tracer.counts["core.access.attempts"] += result.attempts
    return after


def install_layers(tracer: SpanTracer) -> None:
    """Wrap the public entry points of every measured layer.

    Span names follow ``<module>.<entry>``; the per-layer metrics of
    BENCHMARK.json are the self times and call counts of these spans.
    """
    import repro.core.access_engine as access_engine
    import repro.experiments.montecarlo as montecarlo
    import repro.experiments.workload as workload
    import repro.faults.campaign as campaign
    import repro.geometry.kernel as geometry
    import repro.randomwalk.reply as reply
    import repro.randomwalk.walker as walker
    import repro.services.consistency as consistency
    from repro.core.leases import LeaseTable
    from repro.core.strategies import AccessStrategy
    from repro.membership.service import RandomMembership
    from repro.obs.slo import SloMonitor
    from repro.obs.trace import EventTrace
    from repro.obs.watch import WatcherHub
    from repro.services.kvstore import QuorumKVStore
    from repro.sim.kernel import Simulator
    from repro.simnet.network import SimNetwork

    tracer.span(SimNetwork, "route", "simnet.route",
                after=_route_after(tracer))
    tracer.span(SimNetwork, "__init__", "simnet.build")
    tracer.span(SimNetwork, "finish_deferred_init", "simnet.finish_init")
    tracer.span(access_engine.AccessEngine, "tree",
                "core.access_engine.tree")
    tracer.span(access_engine, "bfs_tree", "core.access_engine.bfs_tree",
                importers=False)
    tracer.span(AccessStrategy, "advertise", "core.access",
                after=_attempts_after(tracer))
    tracer.span(AccessStrategy, "lookup", "core.access",
                after=_attempts_after(tracer))
    tracer.span(RandomMembership, "sample", "membership.sample")
    tracer.span(RandomMembership, "refresh", "membership.refresh")
    tracer.span(geometry.NeighborKernel, "neighbor_tables",
                "geometry.neighbor_tables")
    tracer.span(geometry, "batched_neighbor_tables",
                "geometry.neighbor_tables")
    tracer.span(walker, "random_walk", "randomwalk.walk")
    tracer.span(reply, "send_reply", "randomwalk.reply")
    tracer.span(Simulator, "run", "sim.run_until")
    tracer.span(LeaseTable, "visible", "core.leases.visible")
    tracer.span(LeaseTable, "store", "core.leases.store")
    for op in ("get", "put", "cas"):
        tracer.span(QuorumKVStore, op, f"services.kvstore.{op}")
    for op in ("record_get", "record_put", "record_cas"):
        tracer.span(consistency.KVHistoryChecker, op,
                    "services.consistency.record")
    tracer.span(consistency, "check_kv_batch",
                "services.consistency.check_kv_batch")
    tracer.count(EventTrace, "record", "obs.trace.events")
    tracer.span(SloMonitor, "on_event", "obs.slo")
    hub_attach = WatcherHub.attach

    def attach(hub: WatcherHub, trace: Any) -> WatcherHub:
        # The hub delivers through a per-instance closure, so the span
        # goes on the instance before it subscribes.
        hub.on_event = tracer._spanned(hub.on_event, "obs.watch", None)
        return hub_attach(hub, trace)

    tracer._patch(WatcherHub, "attach", attach)
    for value in list(vars(campaign).values()):
        if (isinstance(value, type) and value.__module__ == campaign.__name__
                and "begin" in vars(value)):
            tracer.span(value, "begin", "faults.campaign")
            if "end" in vars(value):
                tracer.span(value, "end", "faults.campaign")
    tracer.span(workload, "generate_operations",
                "experiments.workload.generate")
    tracer.span(workload, "run_workload_batched",
                "experiments.workload.kernel")
    tracer.span(montecarlo, "run_replicated", "experiments.montecarlo.run")
