"""Neighbor discovery via periodic HELLO beacons.

Maintains each node's estimate of N(1, p) — the set of nodes currently
inside its reception range — with timeout-based eviction so that mobility
(and crashed radios) age out of the set.

HELLOs are signed when a signer/directory pair is supplied ("we assume that
overlay maintenance messages are signed as well"), which prevents a
Byzantine node from fabricating the presence of other nodes.  Overlay state
is piggybacked onto the beacons through *extras providers* — the paper
notes "most overlay maintenance messages can be piggybacked on gossip
messages"; piggybacking on HELLO beacons plays the same role without an
extra packet class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from .. import codec
from ..crypto.digest import signed_bytes, signed_copy
from ..crypto.keystore import KeyDirectory, Signer
from ..des.kernel import Simulator
from ..des.random import RandomStream
from ..des.timers import PeriodicTask
from .packet import Packet
from .radio import Radio

__all__ = ["HelloMessage", "NeighborService"]

HELLO_KIND = "hello"


@dataclass(frozen=True)
class HelloMessage:
    """Beacon payload: identity, sequence number, piggybacked extras."""

    sender: int
    seq: int
    extras: Dict[str, Any]
    signature: bytes = b""

    def signed_fields(self) -> tuple:
        # Extras are not themselves signed field-by-field: each extra
        # producer (e.g. the overlay) signs its own content.  The signature
        # here binds identity and liveness (sender, seq).
        return (self.sender, self.seq)


class NeighborService:
    """Tracks one node's direct neighbors from HELLO receptions."""

    def __init__(self, sim: Simulator, radio: Radio, rng: RandomStream, *,
                 hello_period: float = 1.0,
                 timeout_factor: float = 3.5,
                 signer: Optional[Signer] = None,
                 directory: Optional[KeyDirectory] = None):
        if hello_period <= 0:
            raise ValueError("hello_period must be positive")
        if (signer is None) != (directory is None):
            raise ValueError("signer and directory must be given together")
        self._sim = sim
        self._radio = radio
        self._hello_period = hello_period
        self._timeout = hello_period * timeout_factor
        self._signer = signer
        self._directory = directory
        self._seq = 0
        self._last_seen: Dict[int, float] = {}
        self._providers: List[Callable[[], Dict[str, Any]]] = []
        self._listeners: List[Callable[[int, Dict[str, Any]], None]] = []
        self._beacon = PeriodicTask(sim, hello_period, self._send_hello,
                                    jitter=0.25, rng=rng,
                                    start_immediately=True)
        self.bad_signature_count = 0

    # ------------------------------------------------------------------
    @property
    def hello_period(self) -> float:
        return self._hello_period

    @property
    def timeout(self) -> float:
        return self._timeout

    def start(self) -> None:
        self._beacon.start()

    def stop(self) -> None:
        self._beacon.stop()

    def add_extras_provider(self,
                            provider: Callable[[], Dict[str, Any]]) -> None:
        """Register a callback whose dict is merged into outgoing HELLOs."""
        self._providers.append(provider)

    def add_listener(self,
                     listener: Callable[[int, Dict[str, Any]], None]) -> None:
        """Register a callback invoked as ``listener(sender, extras)`` for
        every authenticated HELLO received."""
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    def neighbors(self) -> List[int]:
        """Current N(1, p) estimate (ids heard within the timeout)."""
        horizon = self._sim.now - self._timeout
        return sorted(node_id for node_id, seen in self._last_seen.items()
                      if seen >= horizon)

    def is_neighbor(self, node_id: int) -> bool:
        seen = self._last_seen.get(node_id)
        return seen is not None and seen >= self._sim.now - self._timeout

    def last_seen(self, node_id: int) -> Optional[float]:
        return self._last_seen.get(node_id)

    def forget(self, node_id: int) -> None:
        self._last_seen.pop(node_id, None)

    # ------------------------------------------------------------------
    def _send_hello(self) -> None:
        extras: Dict[str, Any] = {}
        for provider in self._providers:
            extras.update(provider())
        self._seq += 1
        hello = HelloMessage(sender=self._radio.node_id, seq=self._seq,
                             extras=extras)
        if self._signer is not None:
            hello = signed_copy(hello, self._signer.sign)
        self._radio.send(hello, size_bytes=self._wire_size(hello),
                         kind=HELLO_KIND)

    @staticmethod
    def _wire_size(hello: HelloMessage) -> int:
        # Exact on-air size; the frame shape mirrors repro.core.wire's
        # HELLO encoding (which cannot be imported here without a cycle —
        # tests/test_codec_wire.py pins the two in sync).
        return codec.encoded_size(
            ["H", hello.sender, hello.seq, hello.extras, hello.signature])

    def handle_packet(self, packet: Packet) -> bool:
        """Process a packet if it is a HELLO; returns True when consumed."""
        payload = packet.payload
        if not isinstance(payload, HelloMessage):
            return False
        if self._directory is not None:
            # Every receiver verifies; only the bytes are shared per beacon.
            if not self._directory.verify(payload.sender,
                                          signed_bytes(payload),
                                          payload.signature):
                self.bad_signature_count += 1
                return True
        self._last_seen[payload.sender] = self._sim.now
        for listener in self._listeners:
            listener(payload.sender, payload.extras)
        return True
