"""Outside-in layer tracer: per-layer self time from the benchmark's side.

The program under test is not modified.  :func:`install` replaces a fixed
list of public entry points — the kernel's scheduling calls, the timer
constructors, and the cross-layer calls between modules — with wrappers
that open a span for the layer that owns the callee.  Spans nest on one
stack; a layer's *self time* is the time it sat on top of that stack,
which is a span's duration minus the time its children cover.  The
bottom of the stack is ``other``: whatever runs outside every wrapped
call (result assembly, the benchmark's own glue).  Because exactly one
layer is on top at any instant, the self times of all layers plus
``other`` add up to the traced wall time by construction.

Kernel callbacks are charged to the layer whose object owns them: every
``Simulator.schedule_at``/``schedule_at_transient`` call swaps the
callback for a dispatch trampoline that carries the owner's layer, and
``Timer``/``PeriodicTask`` record the layer of the callback they fire,
so a timer's tick lands on, say, ``neighbors`` and not on ``des``.

Spans are aggregated in memory per operation (one identifier per
experiment or job) as ``(parent layer, layer, span name) -> [count,
inclusive seconds]`` and written out as JSON when the benchmark ends.
Tracing is single-threaded: a forked pool worker switches it off, and
the traced service phase runs the scheduler in the calling thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["LAYERS", "Tracer", "install", "layer_of_module"]

#: Every layer a span can be charged to, named after the modules it
#: covers (see :data:`_MODULE_LAYERS`); ``other`` is the remainder.
LAYERS = ("des", "build", "medium", "energy", "mobility", "mac",
          "neighbors", "overlay", "protocol", "fd", "oracle", "crypto",
          "codec", "campaign", "service", "obs", "other")

#: Module prefix -> layer, most specific first.
_MODULE_LAYERS = (
    ("repro.des", "des"),
    ("repro.sim.experiment", "build"),
    ("repro.radio.energy", "energy"),
    ("repro.radio.mac", "mac"),
    ("repro.radio.radio", "mac"),
    ("repro.radio.neighbors", "neighbors"),
    ("repro.radio", "medium"),        # medium, vectorized, grid, geometry
    ("repro.mobility", "mobility"),
    ("repro.overlay", "overlay"),
    ("repro.core.wire", "codec"),
    ("repro.codec", "codec"),
    ("repro.core", "protocol"),
    ("repro.arena", "protocol"),
    ("repro.baselines", "protocol"),
    ("repro.adversary", "protocol"),
    ("repro.metrics", "protocol"),
    ("repro.fd", "fd"),
    ("repro.chaos", "oracle"),
    ("repro.crypto", "crypto"),
    ("repro.sim.campaign", "campaign"),
    ("repro.sim.checkpoint", "campaign"),
    ("repro.service", "service"),
    ("repro.obs", "obs"),
    ("repro.tracing", "obs"),
    ("repro.telemetry", "obs"),
)


def layer_of_module(module: str) -> str:
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


class Tracer:
    """Span stack with self-time accounting and per-operation aggregates."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self._edges: Dict[Tuple[str, str, str], List[float]] = {}
        self._stack: List[Tuple[str, str, float]] = [("other", "", 0.0)]
        self._mark = perf_counter()
        self.operations: List[Dict[str, Any]] = []
        self._op_start = self._mark

    def enter(self, layer: str, name: str) -> None:
        now = perf_counter()
        stack = self._stack
        self.self_s[stack[-1][0]] += now - self._mark
        stack.append((layer, name, now))
        self._mark = now

    def exit(self) -> None:
        now = perf_counter()
        layer, name, start = self._stack.pop()
        self.self_s[layer] += now - self._mark
        self._mark = now
        key = (self._stack[-1][0], layer, name)
        edge = self._edges.get(key)
        if edge is None:
            edge = self._edges[key] = [0, 0.0]
        edge[0] += 1
        edge[1] += now - start

    def begin_operation(self) -> None:
        """Activate tracing for one operation; time between operations
        (the benchmark's own checks) is charged to no layer."""
        global ACTIVE
        self._edges = {}
        ACTIVE = self
        self._mark = self._op_start = perf_counter()

    def end_operation(self, op_id: str) -> float:
        """Deactivate tracing; returns the operation's traced wall time."""
        global ACTIVE
        now = perf_counter()
        ACTIVE = None
        self.self_s["other"] += now - self._mark
        self._mark = now
        wall = now - self._op_start
        spans = []
        for (parent, layer, name), (count, seconds) in sorted(
                self._edges.items()):
            self.counts[name] += int(count)
            self.inclusive_s[name] += seconds
            spans.append({"parent": parent, "layer": layer, "name": name,
                          "count": int(count), "inclusive_s": seconds})
        self.operations.append({"op": op_id, "wall_s": wall,
                                "spans": spans})
        self._edges = {}
        return wall

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"self_s": dict(self.self_s),
                       "operations": self.operations}, handle, indent=1)


#: The active tracer; wrappers call straight through while it is None.
ACTIVE: Optional[Tracer] = None


def _disable_in_child() -> None:
    global ACTIVE
    ACTIVE = None


os.register_at_fork(after_in_child=_disable_in_child)


def _span(fn: Callable, layer: str, name: str) -> Callable:
    def wrapped(*args, **kwargs):
        tracer = ACTIVE
        if tracer is None:
            return fn(*args, **kwargs)
        tracer.enter(layer, name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()
    return functools.update_wrapper(wrapped, fn)


_OWNER_LAYER: Dict[type, str] = {}


def _callback_layer(callback: Callable) -> str:
    """Layer owning a scheduled callback: a timer's recorded target
    layer, else the module of the bound method's class or function."""
    owner = getattr(callback, "__self__", None)
    if owner is None:
        return layer_of_module(getattr(callback, "__module__", "") or "")
    layer = getattr(owner, "_perfbench_layer", None)
    if layer is not None:
        return layer
    kind = type(owner)
    layer = _OWNER_LAYER.get(kind)
    if layer is None:
        layer = _OWNER_LAYER[kind] = layer_of_module(kind.__module__)
    return layer


def _dispatch(layer: str, callback: Callable, args: tuple) -> None:
    tracer = ACTIVE
    if tracer is None:
        callback(*args)
        return
    tracer.enter(layer, "dispatch")
    try:
        callback(*args)
    finally:
        tracer.exit()


def _wrap_callable(fn: Callable, name: str) -> Callable:
    return _span(fn, _callback_layer(fn), name)


class _ObserverProxy:
    """Charges a medium observer's callbacks to the observer's layer."""

    def __init__(self, observer: Any) -> None:
        layer = layer_of_module(type(observer).__module__)
        self.on_transmit = _span(observer.on_transmit, layer, "observer")
        self.on_deliver = _span(observer.on_deliver, layer, "observer")
        self.on_collision = _span(observer.on_collision, layer, "observer")


_INSTALLED = False


def install() -> None:
    """Patch the entry points (idempotent).  Wrappers are inert until
    :data:`ACTIVE` holds a tracer, so untraced runs in the same process
    pay one global lookup per wrapped call."""
    global _INSTALLED
    if _INSTALLED:
        return
    _INSTALLED = True
    mod = importlib.import_module
    kernel = mod("repro.des.kernel")
    timers = mod("repro.des.timers")

    sim_cls = kernel.Simulator
    schedule_at = sim_cls.schedule_at
    schedule_at_transient = sim_cls.schedule_at_transient

    def traced_schedule_at(self, time, callback, *args):
        return schedule_at(self, time, _dispatch,
                           _callback_layer(callback), callback, args)

    def traced_schedule_at_transient(self, time, callback, *args):
        schedule_at_transient(self, time, _dispatch,
                              _callback_layer(callback), callback, args)

    sim_cls.schedule_at = traced_schedule_at
    sim_cls.schedule_at_transient = traced_schedule_at_transient
    sim_cls.run = _span(sim_cls.run, "des", "des.run")

    for timer_cls in (timers.Timer, timers.PeriodicTask):
        _record_timer_layer(timer_cls)

    def method(module: str, cls: str, name: str, layer: str,
               span: Optional[str] = None) -> None:
        owner = getattr(mod(module), cls)
        setattr(owner, name, _span(owner.__dict__[name], layer,
                                   span or f"{layer}.{name}"))

    def function(module: str, name: str, layer: str,
                 span: Optional[str] = None) -> None:
        target = mod(module)
        setattr(target, name, _span(getattr(target, name), layer,
                                    span or f"{layer}.{name}"))

    # World construction (sim.experiment).
    function("repro.sim.experiment", "build_world", "build")
    function("repro.sim.experiment", "finish_world", "build")
    # Medium (+ grid, vectorized, geometry) and its observers.
    for module, cls in (("repro.radio.medium", "Medium"),
                        ("repro.radio.vectorized", "VectorizedMedium")):
        owner = getattr(mod(module), cls)
        # update_position is left unwrapped: the medium calls it per
        # reception candidate, so its cost stays with the caller (the
        # medium's poll-side sync, or the mobility tick's push-side sync).
        for name in ("transmit", "channel_busy_at", "attach"):
            if name in owner.__dict__:
                method(module, cls, name, "medium", f"medium.{name}")
    medium_cls = mod("repro.radio.medium").Medium
    add_observer = medium_cls.add_observer
    medium_cls.add_observer = (
        lambda self, observer: add_observer(self, _ObserverProxy(observer)))
    # MAC and the node receive path.
    method("repro.radio.mac", "CsmaMac", "send", "mac")
    radio_cls = mod("repro.radio.radio").Radio
    set_receiver = radio_cls.set_receiver
    radio_cls.set_receiver = (
        lambda self, handler: set_receiver(
            self, _wrap_callable(handler, "protocol.rx")))
    # Neighbour tables; their listeners run in the listener's layer.
    neighbors = "repro.radio.neighbors"
    method(neighbors, "NeighborService", "handle_packet", "neighbors")
    service_cls = mod(neighbors).NeighborService
    add_listener = service_cls.add_listener
    add_provider = service_cls.add_extras_provider
    service_cls.add_listener = (
        lambda self, listener: add_listener(
            self, _wrap_callable(listener, "hello.listener")))
    service_cls.add_extras_provider = (
        lambda self, provider: add_provider(
            self, _wrap_callable(provider, "hello.provider")))
    # Overlay election.
    method("repro.overlay.manager", "OverlayManager", "step_now", "overlay",
           "overlay.step")
    method("repro.overlay.manager", "OverlayManager", "overlay_neighbors",
           "overlay")
    # Protocol.
    method("repro.core.protocol", "ByzantineBroadcastProtocol",
           "handle_packet", "protocol")
    method("repro.core.protocol", "ByzantineBroadcastProtocol",
           "broadcast", "protocol")
    # Failure detectors.
    for name in ("expect", "observe"):
        method("repro.fd.mute", "MuteFailureDetector", name, "fd",
               f"fd.mute.{name}")
    method("repro.fd.verbose", "VerboseFailureDetector", "observe", "fd",
           "fd.verbose.observe")
    for name in ("suspect", "report_from_peer", "trusts"):
        method("repro.fd.trust", "TrustFailureDetector", name, "fd",
               f"fd.trust.{name}")
    # Invariant oracle.
    for name in ("on_broadcast", "accept_listener"):
        method("repro.chaos.oracle", "InvariantOracle", name, "oracle")
    # Crypto: signing, verification, key issue, signing-field encoder.
    method("repro.crypto.keystore", "Signer", "sign", "crypto",
           "crypto.sign")
    method("repro.crypto.keystore", "KeyDirectory", "verify", "crypto",
           "crypto.verify")
    method("repro.crypto.keystore", "KeyDirectory", "issue", "crypto",
           "crypto.issue")
    method("repro.crypto.verifycache", "CachingKeyDirectory", "verify",
           "crypto", "crypto.verify_request")
    encode_fields = _span(mod("repro.crypto.digest").encode_fields,
                          "crypto", "crypto.encode_fields")
    for module in ("repro.crypto.digest", "repro.crypto.envelope",
                   "repro.core.messages", "repro.radio.neighbors"):
        setattr(mod(module), "encode_fields", encode_fields)
    # Codec: wire framing and the canonical encoder.
    function("repro.core.wire", "encode_message", "codec")
    function("repro.core.wire", "decode_message", "codec")
    for name in ("encode", "encoded_size", "decode"):
        function("repro.codec", name, "codec")
    # Observability (virtual-time spans).
    method("repro.obs.context", "ObsContext", "span", "obs")
    # Campaign and service, parent side.
    method("repro.sim.campaign", "Campaign", "run", "campaign",
           "campaign.run")
    config_key = _span(mod("repro.sim.checkpoint").config_key, "campaign",
                       "campaign.config_key")
    for module in ("repro.sim.checkpoint", "repro.sim.campaign",
                   "repro.service.scheduler"):
        setattr(mod(module), "config_key", config_key)
    method("repro.service.spec", "SweepSpec", "expand", "service")
    method("repro.service.store", "ResultStore", "has_key", "service")
    for name in ("submit", "get", "jobs", "claim_next", "update"):
        method("repro.service.queue", "JobQueue", name, "service",
               f"service.queue.{name}")
    for name in ("submit", "process_once"):
        method("repro.service.scheduler", "CampaignService", name,
               "service")


def _record_timer_layer(timer_cls: type) -> None:
    init = timer_cls.__init__

    # Timer(sim, callback); PeriodicTask(sim, period, callback, ...).
    position = 1 if timer_cls.__name__ == "PeriodicTask" else 0

    def traced_init(self, sim, *args, **kwargs):
        init(self, sim, *args, **kwargs)
        callback = kwargs.get("callback")
        if callback is None:
            callback = args[position]
        self._perfbench_layer = _callback_layer(callback)

    timer_cls.__init__ = traced_init
