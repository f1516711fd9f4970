"""The benchmark's workloads: inputs from a seed, timed operations, gates.

Every workload is a closed loop driven by one process: the next operation
starts only when the previous one has finished.  The workload seed
(``--seed``) derives the scenario seeds; the program under test only
sees the generated :class:`ExperimentConfig` / sweep-spec inputs.  The
operation list is fixed by the seed and by ``--seconds`` (divided by a
nominal per-operation cost), so two commits measured with the same
arguments run exactly the same operations.

Why each workload exists, and what it loads or bypasses
-------------------------------------------------------
``dense-mobile``  byzcast, HMAC, grid medium, no oracle, 3 messages
    1.5 s apart; n=100 in the field E12 sizes for n=40 at degree 9
    (degree about 22), random-waypoint mobility at 5 m/s, no faults.
    Every transmission reaches many receivers and positions really move:
    medium reception resolution, position sync, neighbour tables and
    overlay election carry the load.  Failure detection and recovery stay
    nearly idle: about 5 REQUESTs and 2 suspicions per experiment, against
    about 30 REQUESTs and 4 suspicions on sparse-mute.

Both packet workloads use n=100 so that a run holds many short
experiments: at n=250-300 one experiment took 4-10 s, a run held 3-4,
and its median moved with the scenarios the seed drew.

``sparse-mute``  byzcast, HMAC, 5 messages 1.5 s apart, invariant
    oracle on; constant degree 8 (the CLI/sweep regime), static connected
    placement, n=100 with 10 ``mute`` nodes placed ``high_id`` so they
    sit inside the overlay.  This is the recovery path (gossip, REQUEST,
    FIND_MISSING), MUTE/TRUST suspicion, re-election and the §3.5 oracle.
    Positions never move, so any position re-sync here is pure waste.

``service-dsa``  an in-process ``CampaignService`` over a fresh state
    directory, ``workers = min(2, nproc)``.  One client submits a sweep
    job (byzcast, flooding, dolev, optflood, maurer_tixeuil x 2 seeds,
    n=20, 2 mute, DSA signatures, observe on), waits until it is
    terminal, then resubmits it; every resubmit must be all cache hits.
    DSA modular exponentiation dominates byzcast's self time and the
    media do little at n=20.  The pool, campaign, store, queue and obs
    layers run only here; uneven protocol costs expose pool imbalance,
    and the resubmit is the pure cache-hit path.

The fluid tier is deliberately not measured: n=10^5 takes milliseconds.

Which layer metric should move which end-to-end metric
------------------------------------------------------
==========================  ==========================================
layer metrics               moves / predicted unchanged
==========================  ==========================================
``des.*``                   ``wall_s`` on sparse-mute (most events per
                            host second); little on service-dsa
``build.self_s``            ``op_p50_s`` everywhere, most on service-dsa
                            (DSA key generation)
``medium.*``, ``energy.*``, ``wall_s`` on dense-mobile; little on
``mobility.*``              service-dsa.  Push-only position sync should
                            help sparse-mute (static) and must not cost
                            dense-mobile
``mac.*``, ``neighbors.*``, ``wall_s`` on dense-mobile and sparse-mute;
``hello.*``, ``overlay.*``  ``tx_per_bcast`` must not move (hellos are
                            excluded from it)
``protocol.*``, ``fd.*``,   ``wall_s`` on sparse-mute; no change on
``oracle.*``                dense-mobile
``crypto.*``, ``codec.*``   ``op_p50_s`` on service-dsa; little on the
                            HMAC workloads
``campaign.*``,             ``op_p50_s`` and ``setup_s`` on service-dsa
``service.*``, ``obs.*``    (fork vs forkserver too); none on the packet
                            workloads
``other.self_s``,           the remainder, printed, never hidden
``trace.overhead``
==========================  ==========================================

Re-checking a claim on a held-out seed
--------------------------------------
The seed is only a command-line argument.  A claim developed on seeds
1..10 is re-checked by running both commits with a seed never used while
writing it, e.g. ``python3 perfbench/run.py --workload sparse-mute
--seed 9001 --seconds 10 --trace 0``; the same seed always yields the
same configurations.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.chaos import OracleConfig
from repro.core import wire
from repro.radio.neighbors import HELLO_KIND
from repro.sim import experiment
from repro.sim.campaign import result_to_record
from repro.sim.experiment import ExperimentConfig
from repro.telemetry.runtime import strip_runtime
from repro.workloads.scenarios import (
    AdversaryMix,
    ScenarioConfig,
    area_side_for_degree,
)

import tracer
from hostref import HostReference

#: Nominal host seconds per operation, used only to turn ``--seconds``
#: into a fixed operation count.  Changing one changes the benchmark.
NOMINAL_OP_S = {"dense-mobile": 2.8, "sparse-mute": 1.4, "service-dsa": 4.0}

SERVICE_PROTOCOLS = ("byzcast", "flooding", "dolev", "optflood",
                     "maurer_tixeuil")

#: Resubmit latencies per run: p90 needs at least 100 samples so that
#: at least 10 lie beyond it.
MIN_RESUBMITS = 120


def digest(record: Dict[str, Any]) -> str:
    """Content digest of a record with its wall-clock block stripped."""
    canonical = json.dumps(strip_runtime(record), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def scenario_seeds(workload: str, seed: int, count: int) -> List[int]:
    """``count`` distinct scenario seeds derived from the workload seed."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    seeds: List[int] = []
    while len(seeds) < count:
        value = rng.randrange(1, 2 ** 31)
        if value not in seeds:
            seeds.append(value)
    return seeds


def operation_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_OP_S[workload]))


@dataclass
class Outcome:
    """What one run measured: timings, protocol quantities, gate
    failures, and (traced runs) the per-layer counters."""

    op_s: List[float] = field(default_factory=list)
    resubmit_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    quantities: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failures.append(message)


def median_of(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


# ----------------------------------------------------------------------
# Packet workloads
# ----------------------------------------------------------------------
def packet_config(workload: str, scenario_seed: int,
                  smoke: bool = False) -> ExperimentConfig:
    """The generated input of one packet-tier operation."""
    timing: Dict[str, Any] = {}
    if smoke:
        timing = {"warmup": 4.0, "drain": 4.0}
    if workload == "dense-mobile":
        n, field_n = (40, 16) if smoke else (100, 40)
        scenario = ScenarioConfig(
            n=n, area_side=area_side_for_degree(field_n, 100.0, 9.0),
            mobility="waypoint", speed_max=5.0, seed=scenario_seed)
        return ExperimentConfig(scenario=scenario, protocol="byzcast",
                                message_count=3, message_interval=1.5,
                                **timing)
    if workload == "sparse-mute":
        n = 40 if smoke else 100
        scenario = ScenarioConfig(
            n=n, target_degree=8.0,
            adversaries=AdversaryMix.mute(n // 10, placement="high_id"),
            seed=scenario_seed)
        return ExperimentConfig(scenario=scenario, protocol="byzcast",
                                message_count=5, message_interval=1.5,
                                oracle=OracleConfig(), **timing)
    raise ValueError(f"not a packet workload: {workload}")


@dataclass
class PacketOp:
    """One experiment, run through ``build_world``/``finish_world``."""

    seconds: float
    record: Dict[str, Any]
    world: Any
    #: Wire encode-cache (hits, misses) during this operation.
    encode: Tuple[int, int]


def run_packet_op(config: ExperimentConfig,
                  tracer_obj: Optional[tracer.Tracer] = None,
                  op_id: str = "") -> PacketOp:
    """Time one experiment.  Every operation starts from the same process
    state: garbage collected, and the module-level wire encode cache
    cleared (a repeat would otherwise hit on the previous run's
    messages)."""
    gc.collect()
    wire.configure_cache(wire.cache_info()[3])
    if tracer_obj is not None:
        tracer_obj.begin_operation()
    start = time.perf_counter()
    world = experiment.build_world(config)
    result = experiment.finish_world(world)
    seconds = time.perf_counter() - start
    if tracer_obj is not None:
        tracer_obj.end_operation(op_id)
    hits, misses, _, _ = wire.cache_info()
    return PacketOp(seconds=seconds, record=result_to_record(config, result),
                    world=world, encode=(hits, misses))


def gate_packet(workload: str, op: PacketOp, outcome: Outcome) -> None:
    """sparse-mute's static connected placement keeps the correct nodes
    connected (the paper's assumption), so it must deliver everything
    with no oracle violation.  dense-mobile only reports delivery: under
    waypoint mobility the correct nodes need not stay connected."""
    record = op.record
    if workload != "sparse-mute":
        return
    problems = []
    if record["invariant_violations"] != 0:
        problems.append(f"{record['invariant_violations']} oracle "
                        "violations")
    if record["delivery_ratio"] != 1.0:
        problems.append(f"delivery {record['delivery_ratio']} != 1.0")
    if problems:
        outcome.fail(f"sparse-mute seed {record['seed']}: "
                     + "; ".join(problems))


def quantities(records: List[Dict[str, Any]]) -> Dict[str, float]:
    """The paper's quantities over a run's distinct experiment records:
    delivery (mean ratio), HELLO-free transmissions and bytes per
    broadcast (pooled over the run)."""
    broadcasts = sum(r["broadcasts"] for r in records)
    return {
        "delivery": statistics.fmean(r["delivery_ratio"] for r in records),
        "tx_per_bcast": sum(_protocol_tx(r) for r in records) / broadcasts,
        "bytes_per_bcast": sum(_protocol_bytes(r) for r in records)
        / broadcasts,
    }


def _protocol_tx(record: Dict[str, Any]) -> float:
    physical = record["physical"]
    return physical.get("transmissions", 0) - physical.get("tx_hello", 0)


def _protocol_bytes(record: Dict[str, Any]) -> float:
    physical = record["physical"]
    return physical.get("bytes_sent", 0) - physical.get("bytes_hello", 0)


def run_packet(workload: str, seed: int, seconds: float, trace: bool,
               plant: Optional[str] = None, smoke: bool = False,
               trace_path: Optional[str] = None,
               host: Optional[HostReference] = None) -> Outcome:
    """Untraced: an untimed warm-up of the first experiment, then
    ``count`` distinct experiments, every one timed; the first one's
    record must digest equal to the warm-up's.  Traced: half as many
    distinct experiments, each untraced then traced (the traced run is
    the repeat)."""
    outcome = Outcome()
    count = operation_count(workload, seconds)
    if trace:
        count = max(1, count // 2)
    configs = [packet_config(workload, s, smoke)
               for s in scenario_seeds(workload, seed, count)]
    warmup: Optional[PacketOp] = None
    if not trace:
        outcome.attempted += 1
        try:
            warmup = run_packet_op(configs[0])
        except Exception as exc:  # an operation failure, not a crash
            outcome.fail(f"{workload} seed {configs[0].scenario.seed} "
                         f"warm-up: {exc!r}")
            return outcome
        gate_packet(workload, warmup, outcome)
    done: List[Tuple[ExperimentConfig, PacketOp]] = []
    for config in configs:
        outcome.attempted += 1
        try:
            op = run_packet_op(config)
        except Exception as exc:  # an operation failure, not a crash
            outcome.fail(f"{workload} seed {config.scenario.seed}: {exc!r}")
            continue
        outcome.op_s.append(op.seconds)
        if host is not None:
            host.measure()
        gate_packet(workload, op, outcome)
        op.world = None
        done.append((config, op))
    if not done:
        return outcome
    outcome.quantities = quantities([op.record for _, op in done])
    if warmup is not None:
        config, op = done[0]
        _compare(digest(warmup.record), _planted(op.record, plant),
                 f"{workload} seed {config.scenario.seed} repeat", outcome)
        return outcome
    traced = tracer.Tracer()
    tracer.install()
    layer_counts = LayerCounts()
    for index, (config, op) in enumerate(done):
        again = run_packet_op(config, traced, f"{workload}:{index}")
        layer_counts.add(again)
        _compare(digest(op.record), _planted(again.record, plant),
                 f"{workload} seed {config.scenario.seed} traced", outcome)
    outcome.layers = layer_metrics(traced, layer_counts,
                                   untraced_s=sum(outcome.op_s))
    check_closure(outcome.layers, outcome)
    if trace_path:
        traced.write(trace_path)
    return outcome


def check_closure(layers: Dict[str, float], outcome: Outcome) -> None:
    """Layer self times plus ``other`` must add up to the traced wall."""
    total = sum(layers[f"{layer}.self_s"] for layer in tracer.LAYERS)
    wall = layers["trace.wall_s"]
    if abs(total - wall) > 1e-6 * max(1.0, wall):
        outcome.fail(f"layer self times sum to {total:.6f} s, traced wall "
                     f"is {wall:.6f} s")


def _planted(record: Dict[str, Any], plant: Optional[str]) -> str:
    if plant == "record-mismatch":
        record = dict(record, delivery_ratio=-1.0)
    return digest(record)


def _compare(expected: str, actual: str, what: str,
             outcome: Outcome) -> None:
    if expected != actual:
        outcome.fail(f"{what}: record digest {actual[:12]} != "
                     f"{expected[:12]}")


# ----------------------------------------------------------------------
# Layer counters (traced runs)
# ----------------------------------------------------------------------
@dataclass
class LayerCounts:
    """Counters read from the public stats objects of traced worlds."""

    worlds: int = 0
    events: int = 0
    recycled: int = 0
    tx: int = 0
    tx_hello: int = 0
    deliveries: int = 0
    collisions: int = 0
    mac_sent: int = 0
    mac_dropped: int = 0
    overlay_members: int = 0
    duplicates: int = 0
    requests: int = 0
    finds: int = 0
    max_buffer: int = 0
    verify_hits: int = 0
    verify_misses: int = 0
    suspicions: int = 0
    mute_timeouts: int = 0
    encode_hits: int = 0
    encode_misses: int = 0
    latencies: List[float] = field(default_factory=list)

    def add(self, op: PacketOp) -> None:
        world = op.world
        self.encode_hits += op.encode[0]
        self.encode_misses += op.encode[1]
        self.worlds += 1
        self.latencies.extend(world.collector.all_latencies())
        self.events += world.sim.events_fired
        self.recycled += world.sim.events_recycled
        stats = world.medium.stats
        self.tx += stats.transmissions
        self.tx_hello += stats.by_kind.get(HELLO_KIND, 0)
        self.deliveries += stats.deliveries
        self.collisions += stats.collisions
        for node in world.nodes:
            mac = node.radio.mac.stats
            self.mac_sent += mac.sent
            self.mac_dropped += (mac.dropped_queue_full
                                 + mac.dropped_max_attempts)
            overlay = getattr(node, "overlay", None)
            if overlay is not None and getattr(overlay, "in_overlay", False):
                self.overlay_members += 1
            protocol = getattr(node, "protocol", None)
            proto_stats = getattr(protocol, "stats", None)
            if proto_stats is not None:
                self.duplicates += proto_stats.duplicates_ignored
                self.requests += proto_stats.requests_sent
                self.finds += proto_stats.finds_initiated
                self.max_buffer = max(self.max_buffer,
                                      proto_stats.max_buffer)
                self.verify_hits += proto_stats.verify_cache_hits
                self.verify_misses += proto_stats.verify_cache_misses
            mute = getattr(node, "mute", None)
            if mute is not None:
                self.suspicions += mute.stats.suspicions_raised
                self.mute_timeouts += mute.stats.timeouts
            verbose = getattr(node, "verbose", None)
            if verbose is not None:
                self.suspicions += verbose.stats.suspicions_raised


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(traced: tracer.Tracer, counts: LayerCounts,
                  untraced_s: float,
                  service: Optional[Dict[str, float]] = None
                  ) -> Dict[str, float]:
    """Every per-layer metric, keyed by its ``BENCHMARK.json`` name.
    Counts are totals over the traced operations, except
    ``overlay.members`` (mean per experiment) and
    ``protocol.max_buffer`` (maximum)."""
    self_s = traced.self_s
    wall = sum(op["wall_s"] for op in traced.operations)
    span = traced.counts
    out = {f"{layer}.self_s": self_s.get(layer, 0.0)
           for layer in tracer.LAYERS}
    medium_s = self_s.get("medium", 0.0)
    out.update({
        "des.events": counts.events,
        "des.events_recycled": counts.recycled,
        "des.events_per_s": _ratio(counts.events, untraced_s),
        "medium.tx": counts.tx,
        "medium.deliveries": counts.deliveries,
        "medium.collisions": counts.collisions,
        "medium.deliveries_per_tx": _ratio(counts.deliveries, counts.tx),
        "medium.us_per_delivery": _ratio(medium_s * 1e6, counts.deliveries),
        "mac.sent": counts.mac_sent,
        "mac.dropped": counts.mac_dropped,
        "hello.tx_share": _ratio(counts.tx_hello, counts.tx),
        "overlay.steps": span.get("overlay.step", 0),
        "overlay.members": _ratio(counts.overlay_members, counts.worlds),
        "protocol.rx": span.get("protocol.rx", 0),
        "protocol.duplicates_ignored": counts.duplicates,
        "protocol.requests_sent": counts.requests,
        "protocol.finds_initiated": counts.finds,
        "protocol.max_buffer": counts.max_buffer,
        "protocol.latency_sim_s": median_of(counts.latencies),
        "fd.suspicions": counts.suspicions,
        "fd.mute_timeouts": counts.mute_timeouts,
        "crypto.signs": span.get("crypto.sign", 0),
        "crypto.verifies": span.get("crypto.verify", 0),
        "crypto.verify_hit_rate": _ratio(
            counts.verify_hits, counts.verify_hits + counts.verify_misses),
        "codec.encode_hit_rate": _ratio(
            counts.encode_hits, counts.encode_hits + counts.encode_misses),
        "campaign.worker_util": 0.0,
        "campaign.record_bytes": 0.0,
        "service.cache_hit_rate": 0.0,
        "service.resubmit_p50_s": 0.0,
        "service.resubmit_p90_s": 0.0,
        "trace.wall_s": wall,
        "trace.overhead": _ratio(wall, untraced_s) - 1.0,
    })
    out.update(service or {})
    return out


# ----------------------------------------------------------------------
# service-dsa
# ----------------------------------------------------------------------
def service_spec(seeds: List[int], smoke: bool = False) -> Dict[str, Any]:
    """One cold job: every service protocol over two scenario seeds."""
    spec: Dict[str, Any] = {
        "protocols": list(SERVICE_PROTOCOLS), "seeds": seeds, "n": 20,
        "mute": 2, "scheme": "dsa", "observe": True}
    if smoke:
        spec.update(protocols=["byzcast", "flooding"], n=10, mute=1,
                    messages=2, warmup=4.0, drain=4.0)
    return spec


def service_workers() -> int:
    return min(2, os.cpu_count() or 1)


def start_service(scratch: str):
    """The service under test over a fresh state directory (scheduler
    thread not yet started)."""
    from repro.crypto import dsa
    from repro.service.scheduler import CampaignService

    dsa.default_parameters()  # lazy one-time domain parameters
    service = CampaignService(tempfile.mkdtemp(prefix="svc-", dir=scratch),
                              workers=service_workers())
    return service


def wait_terminal(service, job_id: str,
                  deadline_s: float = 120.0) -> Dict[str, Any]:
    """Long-poll a job until it is terminal (``repro submit --wait``),
    or return its last state once ``deadline_s`` has passed."""
    give_up = time.monotonic() + deadline_s
    since = 0
    while True:
        remaining = give_up - time.monotonic()
        progress = service.progress(job_id, since=since,
                                    timeout=max(0.0, remaining))
        if (progress["state"] in ("done", "failed", "cancelled")
                or remaining <= 0):
            return progress
        since = progress["version"]


def run_service(service, seed: int, seconds: float, trace: bool,
                scratch: str, plant: Optional[str] = None,
                smoke: bool = False,
                trace_path: Optional[str] = None,
                host: Optional[HostReference] = None) -> Outcome:
    """Untraced: ``count`` cold jobs, each followed by resubmits; two of
    the first job's configs are replayed in-process (untimed) and must
    digest equal to the pool-written records.  Traced: one cold job,
    then a serial replay of all its configs, then the same job traced on
    a second fresh service (parent side) and a traced replay (worker
    side)."""
    outcome = Outcome()
    jobs = 1 if trace else operation_count("service-dsa", seconds)
    seeds = scenario_seeds("service-dsa", seed, 2 * jobs)
    specs = [service_spec(seeds[2 * j:2 * j + 2], smoke) for j in range(jobs)]
    if plant == "failed-job":
        # Validates at submit time, fails in expansion: every node mute.
        specs[0] = dict(specs[0], mute=specs[0]["n"])
    resubmits = max(1, math.ceil(MIN_RESUBMITS / jobs))
    keys: List[str] = []
    try:
        for spec in specs:
            outcome.attempted += 1
            start = time.perf_counter()
            job = service.submit(spec)
            state = wait_terminal(service, job.id)
            outcome.op_s.append(time.perf_counter() - start)
            if host is not None:
                host.measure()
            if not (state["state"] == "done"
                    and state["executed"] == state["total"]):
                outcome.fail(f"cold job {job.id}: {state}")
                continue
            keys.extend(service.queue.get(job.id).keys)
            for _ in range(resubmits):
                outcome.attempted += 1
                start = time.perf_counter()
                again = service.submit(spec)
                state = wait_terminal(service, again.id)
                outcome.resubmit_s.append(time.perf_counter() - start)
                if not (state["state"] == "done" and state["executed"] == 0
                        and state["cache_hits"] == state["total"]):
                    outcome.fail(f"resubmit {again.id}: {state}")
        hit_rate = service.stats()["cache_hit_rate"] or 0.0
    finally:
        service.stop()
    records = [service.store.load_key(key) for key in keys]
    records = [r for r in records if r is not None]
    if records:
        outcome.quantities = quantities(records)
    if outcome.failures:
        shutil.rmtree(service.directory, ignore_errors=True)
        return outcome
    from repro.service.spec import SweepSpec
    configs = SweepSpec.from_dict(specs[0]).expand()
    stored = {key: digest(service.store.load_key(key)) for key in keys}
    shutil.rmtree(service.directory, ignore_errors=True)
    if not trace:
        # A byzcast and a dolev config: DSA signing plus path tracking.
        for config in (configs[0], configs[min(4, len(configs) - 1)]):
            op = run_packet_op(config)
            _check_replay(stored, config, op.record, plant, outcome)
        return outcome
    untraced_replay = []
    for config in configs:
        op = run_packet_op(config)
        untraced_replay.append(op.seconds)
        _check_replay(stored, config, op.record, plant, outcome)
    # Traced phase: parent side on a second fresh service, scheduler in
    # this thread so one span stack sees every call.
    traced = tracer.Tracer()
    tracer.install()
    second = start_service(scratch)
    try:
        traced.begin_operation()
        job = second.submit(specs[0])
        second.run_until_idle()
        traced.end_operation("service-dsa:job")
        state = second.queue.get(job.id)
        if state.state != "done":
            outcome.fail(f"traced job {job.id}: {state.state}")
        record_paths = [os.path.join(second.store.directory, f"{k}.json")
                        for k in state.keys]
        record_bytes = statistics.fmean(os.path.getsize(p)
                                        for p in record_paths)
        worker_s = sum((second.store.load_key(k)["runtime"] or {})
                       .get("wall_seconds", 0.0) for k in state.keys)
        for key in state.keys:
            if digest(second.store.load_key(key)) != stored.get(key):
                outcome.fail(f"traced service record {key} differs")
    finally:
        second.stop()
        shutil.rmtree(second.directory, ignore_errors=True)
    layer_counts = LayerCounts()
    for index, config in enumerate(configs):
        op = run_packet_op(config, traced, f"service-dsa:replay:{index}")
        layer_counts.add(op)
        _check_replay(stored, config, op.record, plant, outcome)
    campaign_s = traced.inclusive_s.get("campaign.run", 0.0)
    outcome.layers = layer_metrics(
        traced, layer_counts,
        untraced_s=sum(untraced_replay),
        service={
            "campaign.worker_util": _ratio(
                worker_s, campaign_s * service_workers()),
            "campaign.record_bytes": record_bytes,
            "service.cache_hit_rate": hit_rate,
            "service.resubmit_p50_s": median_of(outcome.resubmit_s),
            "service.resubmit_p90_s": percentile(outcome.resubmit_s, 0.9),
        })
    # Like for like: the serial replays, traced against untraced (the
    # parent-side job runs its scheduler differently in the two phases).
    traced_replay = sum(op["wall_s"] for op in traced.operations[1:])
    outcome.layers["trace.overhead"] = _ratio(
        traced_replay, sum(untraced_replay)) - 1.0
    check_closure(outcome.layers, outcome)
    if trace_path:
        traced.write(trace_path)
    return outcome


def _check_replay(stored: Dict[str, str], config: ExperimentConfig,
                  record: Dict[str, Any], plant: Optional[str],
                  outcome: Outcome) -> None:
    key = record["key"]
    _compare(stored.get(key, "missing"), _planted(record, plant),
             f"service-dsa {config.protocol} seed {config.scenario.seed} "
             "in-process replay", outcome)
