"""Shared test fixtures and fakes."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

import pytest

from repro.core.config import ProtocolConfig
from repro.core.node import NetworkNode, NodeStackConfig
from repro.core.protocol import (
    ByzantineBroadcastProtocol,
    NodeBehavior,
    StaticOverlayPort,
)
from repro.crypto.digest import encode_fields
from repro.crypto.keystore import HmacScheme, KeyDirectory
from repro.des.kernel import Simulator
from repro.des.random import StreamFactory
from repro.fd.mute import MuteConfig, MuteFailureDetector
from repro.fd.trust import TrustFailureDetector, TrustLevel
from repro.fd.verbose import VerboseConfig, VerboseFailureDetector
from repro.overlay import manager as overlay_manager
from repro.radio.geometry import Position
from repro.radio.medium import Medium
from repro.radio.packet import BROADCAST, Packet


@contextmanager
def reference_medium() -> Iterator[None]:
    """Experiments built inside the block run on the scalar reference
    :class:`Medium` (the all-radios scan) instead of the production
    ``VectorizedMedium`` that ``build_world`` constructs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.sim.experiment.VectorizedMedium", Medium)
        yield


def _reference_trusted_subset(self, node_ids, minimum=TrustLevel.TRUSTED):
    return [n for n in node_ids if self.level(n) >= minimum]


def _reference_signed_bytes(message) -> bytes:
    return encode_fields(message.signed_fields())


@contextmanager
def reference_control_plane() -> Iterator[None]:
    """Inside the block the HELLO/overlay control plane runs without its
    per-beacon memos: every receiver encodes a HELLO's signed bytes and
    parses its overlay state itself, and trust filters ask
    :meth:`TrustFailureDetector.level` node by node."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.radio.neighbors.signed_bytes",
                      _reference_signed_bytes)
        patch.setattr("repro.overlay.manager._parsed_state",
                      overlay_manager._parse_state)
        patch.setattr(TrustFailureDetector, "trusted_subset",
                      _reference_trusted_subset)
        yield


class FakeTransport:
    """Records protocol sends instead of touching a medium."""

    def __init__(self) -> None:
        self.sent: List[Tuple[Any, int, str, int]] = []

    def send(self, payload, size_bytes: int, kind: str = "data",
             link_dest: int = BROADCAST) -> bool:
        self.sent.append((payload, size_bytes, kind, link_dest))
        return True

    def of_kind(self, kind: str) -> List[Any]:
        return [payload for payload, _, k, _ in self.sent if k == kind]

    def clear(self) -> None:
        self.sent.clear()


class ProtocolHarness:
    """A single protocol instance over a fake transport and static overlay.

    ``node_id`` runs the real protocol; other identities exist only as
    signers so the harness can fabricate authentic traffic from peers.
    """

    def __init__(self, node_id: int = 1, peers=(2, 3, 4, 5),
                 overlay_members=(2, 3), node_in_overlay: bool = False,
                 config: Optional[ProtocolConfig] = None,
                 neighbors: Optional[List[int]] = None):
        self.sim = Simulator()
        self.directory = KeyDirectory(HmacScheme(seed=b"test"))
        self.signers = {i: self.directory.issue(i)
                        for i in (node_id, *peers)}
        self.transport = FakeTransport()
        self.mute = MuteFailureDetector(self.sim, MuteConfig())
        self.verbose = VerboseFailureDetector(self.sim, VerboseConfig())
        self.trust = TrustFailureDetector(self.sim, self.mute, self.verbose)
        members = set(overlay_members)
        if node_in_overlay:
            members.add(node_id)
        self.neighbor_list = list(neighbors if neighbors is not None
                                  else peers)
        self.overlay = StaticOverlayPort(node_id, members,
                                         lambda: list(self.neighbor_list))
        self.accepted: List[Tuple[int, bytes]] = []
        streams = StreamFactory(7)
        self.config = config or ProtocolConfig()
        # Mirror NetworkNode: the protocol verifies through the node's own
        # caching view when the config enables the verify cache.
        proto_directory = self.directory
        if self.config.verify_cache_size > 0:
            proto_directory = self.directory.caching_view(
                self.config.verify_cache_size)
        self.proto_directory = proto_directory
        self.protocol = ByzantineBroadcastProtocol(
            self.sim, node_id, self.transport, proto_directory,
            self.signers[node_id], self.mute, self.verbose, self.trust,
            self.overlay, lambda: list(self.neighbor_list),
            streams.stream("proto"), self.config,
            accept_callback=lambda o, p, m: self.accepted.append((o, p)))

    def deliver(self, payload, sender: int, kind: str = "data",
                size: int = 100) -> None:
        """Hand the protocol a packet as if received over the air."""
        packet = Packet(sender=sender, payload=payload, size_bytes=size,
                        kind=kind)
        self.protocol.handle_packet(packet)

    def run(self, seconds: float) -> None:
        self.sim.run(until=self.sim.now + seconds)


def build_network(positions: List[Tuple[float, float]], tx_range: float,
                  seed: int = 1, stack: Optional[NodeStackConfig] = None,
                  behaviors: Optional[Dict[int, NodeBehavior]] = None,
                  force_overlay: Optional[Dict[int, bool]] = None):
    """A real multi-node network on a unit-disk medium.

    Returns (sim, medium, nodes, directory).
    """
    sim = Simulator()
    streams = StreamFactory(seed)
    medium = Medium(sim, streams.stream("medium"))
    directory = KeyDirectory(HmacScheme(seed=str(seed).encode()))
    behaviors = behaviors or {}
    force_overlay = force_overlay or {}
    nodes = []
    for node_id, (x, y) in enumerate(positions):
        node = NetworkNode(sim, medium, node_id, Position(x, y), tx_range,
                           streams, directory, stack,
                           behavior=behaviors.get(node_id),
                           force_overlay=force_overlay.get(node_id))
        nodes.append(node)
    for node in nodes:
        node.start()
    return sim, medium, nodes, directory


def line_coords(count: int, spacing: float) -> List[Tuple[float, float]]:
    return [(i * spacing, 0.0) for i in range(count)]


# ----------------------------------------------------------------------
# Hypothesis generators for chaos schedules
# ----------------------------------------------------------------------
#: Behaviour kinds safe to swap in mid-run without extra parameters.
SWAPPABLE_BEHAVIORS = ("mute", "forging", "selective_drop", "gossip_liar",
                      "deaf", "limited_send")


def fault_events(n: int, horizon: float = 6.0, *,
                 include_attackers: bool = True):
    """Strategy yielding one arbitrary :class:`repro.chaos.FaultEvent`.

    Every generated event is valid in *any* order against a byzcast
    network of ``n`` nodes: restarts of never-crashed nodes and stops of
    never-started attackers are no-ops by design, so no cross-event
    constraints are needed.

    ``include_attackers=False`` drops ``attacker_start`` events, which
    need the full byzcast stack (``node.protocol``) — use it when the
    schedule targets arbitrary arena protocols.
    """
    from hypothesis import strategies as st

    from repro.adversary.policies import ATTACKER_KINDS
    from repro.chaos import FaultEvent

    times = st.floats(min_value=0.0, max_value=horizon,
                      allow_nan=False, allow_infinity=False,
                      allow_subnormal=False).map(lambda t: round(t, 3))
    nodes = st.integers(min_value=0, max_value=n - 1)

    def event(action, params=None):
        return st.builds(
            lambda t, node, extra: FaultEvent(
                time=t, node=node, action=action, params=extra),
            times, nodes,
            st.fixed_dictionaries(params) if params else st.just({}))

    choices = [
        event("mute"),
        event("recover"),
        event("crash"),
        event("deaf"),
        event("hear"),
        event("attacker_stop"),
        event("restart", {"reset_state": st.booleans()}),
        event("tx_power", {"factor": st.floats(
            min_value=0.3, max_value=1.0,
            allow_subnormal=False).map(lambda f: round(f, 2))}),
        event("behavior", {"kind": st.sampled_from(SWAPPABLE_BEHAVIORS)}),
    ]
    if include_attackers:
        choices.append(
            event("attacker_start", {"kind": st.sampled_from(ATTACKER_KINDS),
                                     "rate_hz": st.sampled_from([2.0, 5.0])}))
    return st.one_of(*choices)


def fault_schedules(n: int, horizon: float = 6.0, max_events: int = 6, *,
                    include_attackers: bool = True):
    """Strategy yielding an arbitrary :class:`repro.chaos.FaultSchedule`."""
    from hypothesis import strategies as st

    from repro.chaos import FaultSchedule

    return st.lists(
        fault_events(n, horizon, include_attackers=include_attackers),
        max_size=max_events,
    ).map(lambda events: FaultSchedule(events=tuple(events)))
