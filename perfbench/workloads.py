"""The four benchmark workloads and the op recorder they share.

Each workload is built from the benchmark seed alone: the program sees
only the generated inputs (a :class:`WorkloadSpec`, a network config, a
campaign name). A workload sets up ``setups`` times, runs whole rounds
until the measuring time is used up, then checks every recorded output.
Set-ups whose deployment is thrown away take the same inputs on every
seed, so set-up time measures the deployment and not one seed's draw.
See README.md for why each workload is in the benchmark.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import time
import weakref
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
from scipy.stats.mstats import hdquantiles

# The program's entry points are called through their modules, so the
# traced pass's wrappers (installed on the modules) see every call.
import repro.experiments.workload as workload_mod
from repro.analysis.intersection import (
    miss_probability_bound,
    symmetric_quorum_size,
)
from repro.core.biquorum import ProbabilisticBiquorum
from repro.core.strategies import (
    AccessPolicy,
    RandomStrategy,
    UniquePathStrategy,
)
from repro.experiments.common import (
    ScenarioStats,
    make_membership,
    run_scenario,
    scenario_config,
)
import repro.experiments.montecarlo as montecarlo_mod
from repro.experiments.workload import (
    OP_GET,
    KVPointConfig,
    WorkloadSpec,
    generate_operations,
)
from repro.faults.campaign import CampaignRunner, load_campaign
from repro.faults.scenario import run_kv_fault_campaign
from repro.membership.service import RandomMembership
from repro.obs.slo import SloSpec
from repro.obs.watch import attach_watchers, builtin_watchers
from repro.services.consistency import KVHistoryChecker
from repro.services.kvstore import QuorumKVStore
from repro.services.location import LocationService
from repro.simnet.network import NetworkConfig, SimNetwork

from perfbench import checks
from perfbench.checks import Check

_clock = time.perf_counter


def sub_seed(seed: int, *labels: Any) -> int:
    """A 31-bit seed derived from the benchmark seed and labels."""
    text = ":".join([str(seed), *map(str, labels)]).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big") >> 1


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

#: Host seconds one probe sample takes at the reference host speed.
PROBE_REFERENCE_S = 0.0008


class SpeedProbe:
    """A fixed interpreter loop timed every ``INTERVAL`` host seconds.

    Other tenants share the host's cores, and the speed of the same
    work drifts by 10-20% between runs and within them. The probe runs
    the same loop throughout the run (between set-ups and rounds, and
    between ops inside a round), so its mean time over
    ``PROBE_REFERENCE_S`` is how much slower than the reference the
    host was while the run's work ran. Probe time is kept out of every
    round and op time.
    """

    INTERVAL = 0.05

    def __init__(self) -> None:
        self.times: List[float] = []
        self.spent = 0.0
        self._last = _clock()

    def sample(self) -> None:
        t0 = _clock()
        table: Dict[int, int] = {}
        total = 0
        for i in range(4000):
            table[i & 255] = i
            total += table.get(i % 197, 0)
        took = _clock() - t0
        self.times.append(took)
        self.spent += took
        self._last = _clock()

    def due(self) -> None:
        """Take a sample if ``INTERVAL`` has passed since the last."""
        if _clock() - self._last >= self.INTERVAL:
            self.sample()

    @property
    def slowdown(self) -> float:
        return float(np.mean(self.times)) / PROBE_REFERENCE_S


# ---------------------------------------------------------------------------
# Recording the program's outputs at its public service calls
# ---------------------------------------------------------------------------

@dataclass
class KvOp:
    """One kv operation as the store returned it."""

    store: int
    kind: str
    key: Any
    start: float          # simulated clock at the call
    end: float            # simulated clock at the return
    host: float           # host seconds inside the call
    ok: bool = False
    value: Any = None
    version: Optional[Tuple[int, int]] = None
    written: Any = None   # value a put/cas tried to store
    committed: bool = False
    lost_reply: bool = False
    messages: int = 0
    routing: int = 0
    raised: bool = False
    arrival: float = math.nan  # scheduled arrival (simulated)


@dataclass
class Access:
    """One advertise or lookup of the location service."""

    net: int
    kind: str
    key: Any
    value: Any
    host: float
    latency: float
    messages: int
    routing: int
    intersected: bool = False
    found: bool = False
    stored: int = 0


def _version(ts: Any) -> Optional[Tuple[int, int]]:
    return None if ts is None else (ts.counter, ts.writer)


class Recorder:
    """Wraps the service calls the benchmark checks and times per op."""

    def __init__(self, probe: Optional[SpeedProbe] = None) -> None:
        self.probe = probe or SpeedProbe()
        self.kv: List[KvOp] = []
        self.access: List[Access] = []
        self.calls: List[Tuple[int, WorkloadSpec, float, int, int]] = []
        # Networks in use, with their topology version when first seen.
        self.nets: Dict[int, Tuple[SimNetwork, int]] = {}
        self.tracer = None
        self._ids: "weakref.WeakKeyDictionary[Any, int]" = (
            weakref.WeakKeyDictionary())
        self._next_id = itertools.count()
        self._ops = 0
        self._undo: List[Tuple[Any, str, Any]] = []

    def ident(self, obj: Any) -> int:
        """A number for a store or service, never reused in the run."""
        idx = self._ids.get(obj)
        if idx is None:
            idx = self._ids[obj] = next(self._next_id)
        return idx

    def _begin_op(self) -> None:
        self._ops += 1
        if self.tracer is not None:
            self.tracer.op_id = self._ops

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore the wrapped calls."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        rec = self
        get, put, cas = QuorumKVStore.get, QuorumKVStore.put, QuorumKVStore.cas

        def run_op(store: QuorumKVStore, kind: str, call, key: Any,
                   written: Any) -> Any:
            net = store.net
            rec.see(net)
            op = KvOp(store=rec.ident(store), kind=kind, key=key,
                      start=net.now, end=net.now, host=0.0, written=written)
            rec._begin_op()
            h0 = _clock()
            try:
                result = call()
            except Exception:
                op.raised = True
                rec.kv.append(op)
                raise
            op.host = _clock() - h0
            op.end = net.now
            op.ok = result.ok
            op.version = _version(result.version)
            op.messages = result.messages
            op.routing = result.routing_messages
            if kind == "get":
                op.value = result.value
                access = result.accesses[0]
                op.lost_reply = bool(access.found and
                                     access.reply_delivered is False)
            else:
                # A write commits when its propagate access stored at
                # one or more replicas; a cas that lost the compare has
                # no version and no propagate access.
                op.committed = result.ok
            rec.kv.append(op)
            rec.probe.due()
            return result

        def wrapped_get(store, origin, key):
            return run_op(store, "get", lambda: get(store, origin, key),
                          key, None)

        def wrapped_put(store, origin, key, value):
            return run_op(store, "put",
                          lambda: put(store, origin, key, value), key, value)

        def wrapped_cas(store, origin, key, expected, new_value):
            return run_op(store, "cas",
                          lambda: cas(store, origin, key, expected, new_value),
                          key, new_value)

        self._patch(QuorumKVStore, "get", wrapped_get)
        self._patch(QuorumKVStore, "put", wrapped_put)
        self._patch(QuorumKVStore, "cas", wrapped_cas)

        sequential = workload_mod.run_workload_sequential

        def wrapped_sequential(store, spec, time_scale=1.0):
            first = len(rec.kv)
            start = store.net.now
            try:
                return sequential(store, spec, time_scale)
            finally:
                rec.calls.append((rec.ident(store), spec, start, first,
                                  len(rec.kv) - first))

        self._patch(workload_mod, "run_workload_sequential",
                    wrapped_sequential)

        advertise, lookup = LocationService.advertise, LocationService.lookup

        def wrapped_advertise(service, origin, key, value):
            rec._begin_op()
            rec.see(service.net)
            h0 = _clock()
            receipt = advertise(service, origin, key, value)
            host = _clock() - h0
            access = receipt.access
            rec.access.append(Access(
                net=rec.ident(service), kind="advertise", key=key,
                value=value, host=host, latency=access.latency,
                messages=access.messages, routing=access.routing_messages,
                stored=len(access.quorum)))
            rec.probe.due()
            return receipt

        def wrapped_lookup(service, origin, key):
            rec._begin_op()
            h0 = _clock()
            receipt = lookup(service, origin, key)
            host = _clock() - h0
            access = receipt.access
            rec.access.append(Access(
                net=rec.ident(service), kind="lookup", key=key,
                value=receipt.value, host=host,
                latency=0.0 if access is None else access.latency,
                messages=receipt.messages,
                routing=0 if access is None else access.routing_messages,
                # An owner looking up its own key intersects at home.
                intersected=access is None or access.found,
                found=receipt.found))
            rec.probe.due()
            return receipt

        self._patch(LocationService, "advertise", wrapped_advertise)
        self._patch(LocationService, "lookup", wrapped_lookup)

    def see(self, net: SimNetwork) -> None:
        if id(net) not in self.nets:
            self.nets[id(net)] = (net, net.topology_version)

    def take_topology_changes(self) -> int:
        """Topology changes of the networks in use since first seen."""
        changes = sum(net.topology_version - base
                      for net, base in self.nets.values())
        # Forget them: a network still in use is seen again at its next
        # op, and holding finished replicas would grow the heap.
        self.nets.clear()
        return changes

    def fill_arrivals(self) -> None:
        """Stamp each kv op with its scheduled arrival time."""
        for _, spec, start, first, count in self.calls:
            times = generate_operations(spec).times
            for i in range(count):
                self.kv[first + i].arrival = start + float(times[i])


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class RoundStats:
    ops: int
    host: float


@dataclass
class Outcome:
    """What a measured pass produced, for metrics and checks."""

    setup_times: List[float]
    rounds: List[RoundStats]
    attempted: int
    failed: int
    checks: List[Check]
    metrics: Dict[str, float]
    layer_counts: Dict[str, float] = field(default_factory=dict)
    digest: str = ""
    notes: List[str] = field(default_factory=list)
    raw_metrics: Dict[str, float] = field(default_factory=dict)
    slowdown: float = 1.0


def _pct(values: List[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile.

    A weighted mean of every order statistic: simulated latencies come
    in whole hops, and a plain order statistic would read the same
    hop count on every seed.
    """
    if len(values) == 1:
        return float(values[0])
    return float(hdquantiles(np.asarray(values, dtype=np.float64),
                             prob=[q / 100.0])[0])


class Workload:
    name = ""
    round_ops = 0
    #: Set-ups per run; ``setup_s`` is their median.
    setups = 3
    #: Whether every set-up runs before the first round, as it must when
    #: the rounds use what the set-ups build. Otherwise set-ups are
    #: spread over the measuring time, so they run on the host as the
    #: rounds and the speed probe see it.
    setups_up_front = False

    def __init__(self, seed: int, rec: Recorder) -> None:
        self.seed = seed
        self.rec = rec
        self.topology_changes = 0

    def setup(self, index: int) -> None:
        raise NotImplementedError

    def run_round(self, index: int) -> None:
        raise NotImplementedError

    def after_round(self) -> None:
        self.topology_changes += self.rec.take_topology_changes()

    def finish(self, outcome: Outcome) -> None:
        raise NotImplementedError


def _digest(items: List[Any]) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


class _KvWorkload(Workload):
    """Shared accounting of the two live kv workloads."""

    ttl: Optional[float] = None
    #: Index into the recorder's driver calls of the first measured one.
    first_call = 0

    def _round_ops(self) -> List[KvOp]:
        ops: List[KvOp] = []
        for _, _, _, first, count in self.rec.calls[self.first_call:]:
            ops.extend(self.rec.kv[first:first + count])
        return ops

    def _kv_metrics(self, outcome: Outcome, ops: List[KvOp]) -> None:
        self.rec.fill_arrivals()
        done = [op for op in ops if not op.raised]
        host = sum(r.host for r in outcome.rounds)
        ms = [op.host * 1e3 for op in done]
        sim = [op.end - op.arrival for op in done]
        lag = [op.start - op.arrival for op in done]
        outcome.metrics.update({
            "ops_per_s": len(done) / host,
            "op_host_p50_ms": _pct(ms, 50),
            "op_host_p90_ms": _pct(ms, 90),
            "sim_latency_p50_s": _pct(sim, 50),
            "sim_latency_p99_s": _pct(sim, 99),
            "messages_per_op": sum(op.messages for op in done) / len(done),
        })
        outcome.layer_counts.update({
            "experiments.workload.issue_lag_p99_s": _pct(lag, 99),
            "simnet.routing_messages_per_op":
                sum(op.routing for op in done) / len(done),
        })
        first = self.rec.calls[self.first_call]
        round0 = self.rec.kv[first[3]:first[3] + first[4]]
        outcome.digest = _digest([
            (op.kind, op.key, op.ok, op.version, op.messages, op.routing,
             op.lost_reply, repr(op.end - op.start)) for op in round0])

    def _kv_checks(self, outcome: Outcome, ops: List[KvOp],
                   checker_violations: int) -> Dict[int, Any]:
        """Ledger replay per store; returns the replay of each store."""
        measured = {id(op) for op in ops}
        by_store: Dict[int, List[KvOp]] = {}
        for op in self.rec.kv:
            by_store.setdefault(op.store, []).append(op)
        replays = {}
        flagged = 0
        for store, store_ops in by_store.items():
            replay = checks.replay_ledger(store_ops, self.ttl)
            replays[store] = replay
            flagged += sum(1 for i in replay.flagged
                           if id(store_ops[i]) in measured)
        failed_writes = sum(1 for op in ops if op.kind != "get" and
                            not op.raised and op.version is not None and
                            not op.committed)
        raised = sum(1 for op in ops if op.raised)
        outcome.failed = min(len(ops),
                             flagged + failed_writes + checker_violations)
        outcome.checks.append(Check(
            "history checker", checker_violations == 0,
            f"{checker_violations} violations"))
        outcome.checks.append(Check(
            "commit ledger", flagged == 0,
            f"{flagged} gets return a version/value no committed write "
            f"of the key made before them ({raised} ops raised)"))
        outcome.checks.append(Check(
            "writes commit", failed_writes == 0,
            f"{failed_writes} puts/cas stored at no replica"))
        return replays


class KvLive(_KvWorkload):
    """The canonical live point: open-loop Zipf stream, RANDOM/RANDOM."""

    name = "kv-live"
    n = 200
    epsilon = 0.05
    ttl = 30.0
    # Rounds cycle over the set-up deployments, so a run averages over
    # six topologies rather than riding on one.
    setups = 6
    setups_up_front = True
    round_ops = 250
    warmup_ops = 100

    def __init__(self, seed: int, rec: Recorder) -> None:
        super().__init__(seed, rec)
        self.size = symmetric_quorum_size(self.n, self.epsilon)
        self.stores: List[QuorumKVStore] = []

    def spec(self, ops: int, *labels: Any) -> WorkloadSpec:
        return WorkloadSpec(ops=ops, n_keys=64, read_fraction=0.9,
                            cas_fraction=0.5, zipf_s=0.99,
                            arrival_rate=200.0,
                            seed=sub_seed(self.seed, *labels))

    def setup(self, index: int) -> None:
        net = SimNetwork(NetworkConfig(
            n=self.n, avg_degree=10.0,
            seed=sub_seed(self.seed, "net", index)))
        view = max(self.size, int(round(2.0 * math.sqrt(self.n))))
        membership = RandomMembership(net, view_size=view)
        biquorum = ProbabilisticBiquorum(
            net, advertise=RandomStrategy(membership),
            lookup=RandomStrategy(membership),
            advertise_size=self.size, lookup_size=self.size,
            adjust_to_network_size=False)
        store = QuorumKVStore(biquorum, lease_ttl=self.ttl,
                              checker=KVHistoryChecker())
        workload_mod.run_workload_sequential(
            store, self.spec(self.warmup_ops, "warmup", index))
        self.stores.append(store)
        self.first_call = len(self.rec.calls)

    def run_round(self, index: int) -> None:
        store = self.stores[index % len(self.stores)]
        workload_mod.run_workload_sequential(
            store, self.spec(self.round_ops, "round", index))

    def finish(self, outcome: Outcome) -> None:
        ops = self._round_ops()
        self._kv_metrics(outcome, ops)
        violations = sum(s.checker.report().total_violations
                         for s in self.stores)
        replays = self._kv_checks(outcome, ops, violations)
        expired = sum(len(r.expired_reads) for r in replays.values())
        outcome.checks.append(Check(
            "no expired reads", expired == 0,
            f"{expired} gets return a version whose every lease had "
            f"lapsed (TTL {self.ttl:g} s on the simulated clock)"))
        hits = sum(r.leased_hits for r in replays.values())
        misses = sum(r.leased_misses for r in replays.values())
        lost = sum(r.leased_lost for r in replays.values())
        bound = miss_probability_bound(self.size, self.size, self.n)
        trials = hits + misses
        p_value = checks.binomial_not_above(misses, trials, bound)
        share = misses / trials if trials else math.nan
        outcome.checks.append(Check(
            "Lemma 5.2 on leased gets", p_value >= checks.ALPHA,
            f"{misses}/{trials} = {share:.4f} miss the newest leased "
            f"commit vs bound exp(-|Qa||Ql|/n) = {bound:.4f} "
            f"(one-sided p = {p_value:.3g}); {lost} lost replies apart"))
        outcome.layer_counts["core.leases.reclaimed"] = sum(
            s.net.metrics.counter_value("kv.lease.reclaimed")
            for s in self.stores)
        stale = sum(r.not_newest for r in replays.values())
        gets = sum(r.with_commit for r in replays.values())
        sim_span = sum(self._call_span(c) for c in
                       self.rec.calls[self.first_call:])
        arrival_span = sum(float(generate_operations(c[1]).times[-1])
                           for c in self.rec.calls[self.first_call:])
        outcome.notes.append(
            f"closed-loop fault: {sim_span:.1f} simulated s against "
            f"{arrival_span:.1f} s of arrivals; gets not returning the "
            f"newest commit {stale}/{gets}")

    def _call_span(self, call) -> float:
        _, _, start, first, count = call
        return self.rec.kv[first + count - 1].end - start


class KvChurnWatched(_KvWorkload):
    """Writes beside reads under the builtin ``join-surge`` campaign.

    Campaigns that drop packets, kill nodes or cut the network (as
    ``stress`` does) make a write store at no replica on some seeds
    only, and a benchmark cannot carry failures whose number depends
    on the seed (see README.md); joins churn the topology without that.
    """

    name = "kv-churn-watched"
    n = 200
    # Enough ops per campaign that the closed-loop lag, not the luck of
    # one drop burst, sets the simulated latency.
    round_ops = 400
    setups = 15
    campaign = "join-surge"
    #: A get is one access, and the access policy starts no retry past
    #: its 5 s deadline.
    slo = SloSpec(metric="kv.get.latency", p=99, max=5.0, window=50)
    #: run_kv_fault_campaign's default access policy.
    policy = AccessPolicy(deadline=5.0, max_retries=2)

    def __init__(self, seed: int, rec: Recorder) -> None:
        super().__init__(seed, rec)
        self.reports: List[Any] = []

    def _campaign(self, ops: int, *labels: Any) -> Any:
        return run_kv_fault_campaign(
            self.campaign, n=self.n, seed=sub_seed(self.seed, *labels),
            n_keys=64, n_ops=ops, read_fraction=0.5, cas_fraction=0.3,
            lease_ttl=None, watch=True, slo_specs=[self.slo])

    def setup(self, index: int) -> None:
        # The deployment every round's campaign makes before its first
        # op, built as run_kv_fault_campaign builds it: network, watchers
        # and SLO, membership, store, and the runner with the campaign's
        # faults scheduled. Nothing is simulated.
        net = SimNetwork(NetworkConfig(n=self.n, avg_degree=10.0,
                                       seed=sub_seed(0, "setup", index)))
        hub = attach_watchers(net, watchers=builtin_watchers(
            n=net.n_alive,
            names=["monotonicity", "conservation", "no-fabricated-value"]),
            slo_specs=[self.slo])
        membership = RandomMembership(net)
        size = int(round(math.sqrt(self.n * math.log(1.0 / 0.05))))
        biquorum = ProbabilisticBiquorum(
            net, advertise=RandomStrategy(membership).set_policy(self.policy),
            lookup=RandomStrategy(membership).set_policy(self.policy),
            advertise_size=size, lookup_size=size,
            adjust_to_network_size=False)
        QuorumKVStore(biquorum, lease_ttl=None, adaptive=True,
                      checker=KVHistoryChecker())
        runner = CampaignRunner(net, load_campaign(self.campaign),
                                memberships=(membership,)).start()
        runner.stop()
        membership.stop()
        hub.detach()

    def run_round(self, index: int) -> None:
        self.reports.append(self._campaign(self.round_ops, "round", index))

    def finish(self, outcome: Outcome) -> None:
        ops = self._round_ops()
        self._kv_metrics(outcome, ops)
        violations = sum(r.consistency.total_violations
                         for r in self.reports)
        self._kv_checks(outcome, ops, violations)
        watch = sum(len(r.watch_violations) for r in self.reports)
        unclean = sum(1 for r in self.reports if r.watch_clean is not True)
        outcome.failed = min(len(ops), outcome.failed + watch)
        outcome.checks.append(Check(
            "watchers clean", watch == 0 and unclean == 0,
            f"{watch} watcher/SLO violations over {len(self.reports)} "
            f"campaigns ({self.slo.label})"))
        outcome.layer_counts["faults.campaign.injections"] = sum(
            r.injections_applied for r in self.reports)
        outcome.layer_counts["core.leases.reclaimed"] = sum(
            r.lease_reclaimed for r in self.reports)


class PaperAsym(Workload):
    """Section 8 advertise/lookup: RANDOM advertise, UNIQUE-PATH lookup."""

    name = "paper-asym"
    setups = 5
    # A set-up builds 32 networks; spread over the run it meets a heap
    # grown by the rounds, and the garbage collector's full passes make
    # its time twofold on some set-ups and not others.
    setups_up_front = True
    n = 500
    reps = 32
    n_keys = 10
    n_lookups = 60
    epsilon = 0.05

    def __init__(self, seed: int, rec: Recorder) -> None:
        super().__init__(seed, rec)
        # |Qa| = 2 sqrt(n) (the membership view), |Ql| the smallest
        # size meeting |Qa||Ql| >= n ln(1/eps) (Corollary 5.3).
        self.qa = int(round(2.0 * math.sqrt(self.n)))
        self.ql = int(math.ceil(self.n * math.log(1.0 / self.epsilon)
                                / self.qa))
        self.round_ops = self.reps * (self.n_keys + self.n_lookups)

    def setup(self, index: int) -> None:
        # The replication engine builds every replica's network; a
        # replica that does nothing leaves just that construction. The
        # placement is not redrawn until connected here, or set-up time
        # would come in whole multiples of one placement.
        seed = sub_seed(0, "setup", index)
        montecarlo_mod.run_replicated(
            scenario_config(self.n, mobility="static", seed=seed,
                            require_connected=False),
            lambda net, rep_seed: ScenarioStats(n=net.n_alive),
            base_seed=seed, reps=self.reps, backend="batched")

    def run_round(self, index: int) -> None:
        qa, ql = self.qa, self.ql

        def replica(net: SimNetwork, rep_seed: int) -> ScenarioStats:
            membership = make_membership(net, "random")
            try:
                return run_scenario(
                    net, advertise_strategy=RandomStrategy(membership),
                    lookup_strategy=UniquePathStrategy(),
                    advertise_size=qa, lookup_size=ql,
                    n_keys=self.n_keys, n_lookups=self.n_lookups,
                    seed=rep_seed)
            finally:
                membership.stop()

        seed = sub_seed(self.seed, "round", index)
        montecarlo_mod.run_replicated(
            scenario_config(self.n, mobility="static", seed=seed), replica,
            base_seed=seed, reps=self.reps, backend="batched")

    def finish(self, outcome: Outcome) -> None:
        accesses = self.rec.access
        host = sum(r.host for r in outcome.rounds)
        ms = [a.host * 1e3 for a in accesses]
        sim = [a.latency for a in accesses]
        outcome.metrics.update({
            "ops_per_s": len(accesses) / host,
            "op_host_p50_ms": _pct(ms, 50),
            "op_host_p90_ms": _pct(ms, 90),
            "sim_latency_p50_s": _pct(sim, 50),
            "sim_latency_p99_s": _pct(sim, 99),
            "messages_per_op": sum(a.messages for a in accesses)
                               / len(accesses),
        })
        outcome.layer_counts.update({
            "simnet.routing_messages_per_op":
                sum(a.routing for a in accesses) / len(accesses),
        })
        outcome.digest = _digest([
            (a.kind, a.key, a.intersected, a.found, a.messages, a.routing,
             repr(a.latency)) for a in accesses[:self.round_ops]])

        advertised: Dict[Tuple[int, Any], Any] = {}
        per_key: Dict[Tuple[int, Any], List[int]] = {}
        empty = wrong = 0
        for a in accesses:
            ident = (a.net, a.key)
            if a.kind == "advertise":
                advertised[ident] = a.value
                per_key[ident] = [0, 0]
                empty += a.stored == 0
                continue
            tally = per_key[ident]
            tally[0] += a.intersected
            tally[1] += 1
            if a.found and a.value != advertised[ident]:
                wrong += 1
        outcome.failed = empty + wrong
        outcome.checks.append(Check(
            "advertisements stored", empty == 0,
            f"{empty} advertisements reached no node"))
        outcome.checks.append(Check(
            "hits return the advertised value", wrong == 0,
            f"{wrong} hits return another value"))
        hits = np.array([t[0] for t in per_key.values() if t[1]], float)
        trials = np.array([t[1] for t in per_key.values() if t[1]], float)
        floor = 1.0 - miss_probability_bound(self.qa, self.ql, self.n)
        ratio, se, z = checks.cluster_ratio_z(hits, trials, floor)
        outcome.checks.append(Check(
            "Lemma 5.2 intersection", z > -checks.Z_ONE_SIDED,
            f"intersection ratio {ratio:.4f} (se {se:.4f} over "
            f"{len(trials)} advertised keys) vs floor 1-exp(-|Qa||Ql|/n) "
            f"= {floor:.4f} with |Qa|={self.qa}, |Ql|={self.ql}; "
            f"z = {z:.2f}"))


class KvModel(Workload):
    """The batched kernel: model throughput, put-only writes."""

    name = "kv-model"
    round_ops = 100_000
    # One set-up takes about 10 ms; the median of nine is steady.
    setups = 9
    config = KVPointConfig(n=400, epsilon=0.05, lease_ttl=30.0,
                           churn_rate=0.01)

    def __init__(self, seed: int, rec: Recorder) -> None:
        super().__init__(seed, rec)
        self.results: List[Tuple[WorkloadSpec, Any]] = []

    def spec(self, ops: int, seed: int) -> WorkloadSpec:
        return WorkloadSpec(ops=ops, n_keys=64, read_fraction=0.9,
                            cas_fraction=0.0, zipf_s=0.99,
                            arrival_rate=200.0, seed=seed)

    def setup(self, index: int) -> None:
        # The kernel's fixed cost per call: stream generation, churn
        # schedule and miss table at a minimal op count.
        workload_mod.run_workload_batched(
            self.spec(1000, sub_seed(0, "setup", index)), self.config)

    def run_round(self, index: int) -> None:
        spec = self.spec(self.round_ops, sub_seed(self.seed, "round", index))
        self.results.append(
            (spec, workload_mod.run_workload_batched(spec, self.config)))

    def finish(self, outcome: Outcome) -> None:
        qa, ql = self.config.sizes()
        ops = sum(r.ops for r in outcome.rounds)
        host = sum(r.host for r in outcome.rounds)
        per_op_ms = [r.host * 1e3 / r.ops for r in outcome.rounds]
        stats_ = [s for _, s in self.results]
        contacts = sum(s.ops * ql + s.writes * qa for s in stats_)
        outcome.metrics.update({
            "ops_per_s": ops / host,
            "op_host_p50_ms": _pct(per_op_ms, 50),
            "op_host_p90_ms": _pct(per_op_ms, 90),
            "sim_latency_p50_s": float(np.median([s.p50 for s in stats_])),
            "sim_latency_p99_s": float(np.median([s.p99 for s in stats_])),
            "messages_per_op": contacts / ops,
        })
        first = stats_[0]
        outcome.digest = _digest([
            (first.reads, first.writes, first.found_reads,
             first.missed_reads, first.stale_or_missed, repr(first.p50),
             repr(first.p99))])
        violations = sum(s.report.total_violations for s in stats_)
        outcome.failed = min(ops, violations)
        outcome.checks.append(Check(
            "check_kv_batch clean", violations == 0,
            f"{violations} violations over {len(stats_)} kernel calls"))
        observed = sum(s.stale_or_missed for s in stats_)
        eligible = 0
        probs = []
        for spec, s in self.results:
            stream = generate_operations(spec)
            p, mask = checks.expected_not_newest(
                stream.times, stream.keys, stream.kinds == OP_GET,
                self.config.n, qa, ql, self.config.lease_ttl,
                self.config.churn_rate)
            probs.append(p)
            eligible += int(mask.sum())
        expected, sd, z = checks.poisson_binomial_z(observed, probs)
        agree = (eligible == sum(s.eligible_reads for s in stats_)
                 and abs(z) < checks.Z_TWO_SIDED)
        outcome.checks.append(Check(
            "not-newest reads match lease theory", agree,
            f"{observed} observed vs {expected:.1f} expected "
            f"(sd {sd:.1f}, z = {z:.2f}) over {eligible} reads with a "
            f"prior put"))


WORKLOADS = {cls.name: cls for cls in
             (KvLive, KvChurnWatched, PaperAsym, KvModel)}
