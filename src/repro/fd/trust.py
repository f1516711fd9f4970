"""The TRUST failure detector.

"The TRUST failure detector collects the reports of MUTE and VERBOSE, as
well as detections of messages with bad signatures and other locally
observable deviations from the protocol.  In return, TRUST maintains a
trust level for each neighboring node.  This information is fed into the
overlay."

Trust levels follow §3.3's ``overlay_trust`` variable:

* ``UNTRUSTED`` — this node's own TRUST suspects the peer (MUTE or VERBOSE
  suspicion, or enough direct ``suspect`` reports such as bad signatures);
* ``UNKNOWN``   — not locally suspected, but a *trusted* neighbor reported
  a suspicion of the peer ("p changes r's overlay trust to unknown, unless
  p already suspects either q or r");
* ``TRUSTED``   — no reason for suspicion.

Direct suspicions age out like the other detectors' counters so that a node
wrongly suspected during an asynchrony period is eventually rehabilitated.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..des.kernel import Simulator
from ..des.timers import PeriodicTask
from .events import SuspicionReason
from .mute import MuteFailureDetector
from .verbose import VerboseFailureDetector

__all__ = ["TrustLevel", "TrustConfig", "TrustFailureDetector"]


class TrustLevel(enum.IntEnum):
    """Ordered trust levels; higher is more trusted."""

    UNTRUSTED = 0
    UNKNOWN = 1
    TRUSTED = 2


@dataclass(frozen=True)
class TrustConfig:
    direct_threshold: int = 1        # direct suspect() calls to distrust
    aging_period: float = 20.0       # seconds between decay steps
    aging_amount: int = 1
    peer_report_ttl: float = 60.0    # how long an UNKNOWN marking lasts

    def __post_init__(self) -> None:
        if self.direct_threshold < 1:
            raise ValueError("direct_threshold must be >= 1")
        if self.aging_period <= 0:
            raise ValueError("aging_period must be positive")
        if self.peer_report_ttl <= 0:
            raise ValueError("peer_report_ttl must be positive")


@dataclass
class SuspicionRecord:
    """History of why a node was suspected (kept for diagnostics)."""

    count: int = 0
    reasons: List[Tuple[float, SuspicionReason]] = field(default_factory=list)


class TrustFailureDetector:
    """Per-node TRUST detector aggregating MUTE, VERBOSE, and reports."""

    def __init__(self, sim: Simulator,
                 mute: Optional[MuteFailureDetector] = None,
                 verbose: Optional[VerboseFailureDetector] = None,
                 config: TrustConfig = TrustConfig()):
        self._sim = sim
        self._mute = mute
        self._verbose = verbose
        self._config = config
        self._direct: Dict[int, SuspicionRecord] = {}
        self._peer_reports: Dict[int, float] = {}  # node -> report time
        self._listeners: List[Callable[[int, TrustLevel], None]] = []
        if mute is not None:
            mute.add_listener(self._on_component_suspect)
        if verbose is not None:
            verbose.add_listener(self._on_component_suspect)
        # Lazy aging: ticks only while direct suspicions or peer reports
        # exist, so an idle detector schedules no events.
        self._aging = PeriodicTask(sim, config.aging_period, self._age)

    @property
    def config(self) -> TrustConfig:
        return self._config

    def add_listener(self,
                     listener: Callable[[int, TrustLevel], None]) -> None:
        """Listeners fire whenever a node's level drops below TRUSTED."""
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    # The paper's interface (Figure 2)
    # ------------------------------------------------------------------
    def suspect(self, node_id: int, reason: SuspicionReason) -> None:
        """Reduce ``node_id``'s trust for the given reason."""
        record = self._direct.setdefault(node_id, SuspicionRecord())
        record.count += 1
        record.reasons.append((self._sim.now, reason))
        if len(record.reasons) > 64:
            del record.reasons[:-64]
        self._aging.start()
        if record.count >= self._config.direct_threshold:
            self._notify(node_id, TrustLevel.UNTRUSTED)

    def report_from_peer(self, reporter: int, suspected_node: int) -> None:
        """Handle a neighbor's suspicion report.

        Marks ``suspected_node`` as UNKNOWN unless we already suspect either
        the reporter (its reports carry no weight) or the node itself (its
        level is already UNTRUSTED).
        """
        if self.level(reporter) is TrustLevel.UNTRUSTED:
            return
        if self.level(suspected_node) is TrustLevel.UNTRUSTED:
            return
        if reporter == suspected_node:
            return
        self._peer_reports[suspected_node] = self._sim.now
        self._aging.start()
        self._notify(suspected_node, TrustLevel.UNKNOWN)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def level(self, node_id: int) -> TrustLevel:
        if self._locally_suspected(node_id):
            return TrustLevel.UNTRUSTED
        report_time = self._peer_reports.get(node_id)
        if (report_time is not None
                and self._sim.now - report_time < self._config.peer_report_ttl):
            return TrustLevel.UNKNOWN
        return TrustLevel.TRUSTED

    def trusts(self, node_id: int) -> bool:
        return self.level(node_id) is TrustLevel.TRUSTED

    def untrusted_nodes(self) -> List[int]:
        return sorted(self._below(TrustLevel.UNKNOWN))

    def trusted_subset(self, node_ids: List[int],
                       minimum: TrustLevel = TrustLevel.TRUSTED) -> List[int]:
        """``[n for n in node_ids if self.level(n) >= minimum]`` in one pass.

        Gathers the few ids below ``minimum`` once instead of asking
        :meth:`level` per id; returns ``node_ids`` itself when no id at
        all is below ``minimum``.
        """
        below = self._below(minimum)
        if not below:
            return node_ids
        return [n for n in node_ids if n not in below]

    def history(self, node_id: int) -> List[Tuple[float, SuspicionReason]]:
        record = self._direct.get(node_id)
        return list(record.reasons) if record else []

    def stop(self) -> None:
        self._aging.stop()

    def reset(self) -> None:
        """Forget all direct suspicions and peer reports (node restart)."""
        self._direct.clear()
        self._peer_reports.clear()
        self._aging.stop()

    # ------------------------------------------------------------------
    def _below(self, minimum: TrustLevel) -> Set[int]:
        """Every node whose :meth:`level` is below ``minimum``."""
        below: Set[int] = set()
        if minimum is TrustLevel.UNTRUSTED:
            return below
        if self._mute is not None:
            below.update(self._mute.suspected_nodes())
        if self._verbose is not None:
            below.update(self._verbose.suspected_nodes())
        threshold = self._config.direct_threshold
        below.update(node for node, record in self._direct.items()
                     if record.count >= threshold)
        if minimum is TrustLevel.TRUSTED:
            now, ttl = self._sim.now, self._config.peer_report_ttl
            below.update(node for node, report_time
                         in self._peer_reports.items()
                         if now - report_time < ttl)
        return below

    def _locally_suspected(self, node_id: int) -> bool:
        if self._mute is not None and self._mute.suspected(node_id):
            return True
        if self._verbose is not None and self._verbose.suspected(node_id):
            return True
        record = self._direct.get(node_id)
        return (record is not None
                and record.count >= self._config.direct_threshold)

    def _on_component_suspect(self, node_id: int,
                              reason: SuspicionReason) -> None:
        record = self._direct.setdefault(node_id, SuspicionRecord())
        record.reasons.append((self._sim.now, reason))
        if len(record.reasons) > 64:
            del record.reasons[:-64]
        self._aging.start()
        self._notify(node_id, TrustLevel.UNTRUSTED)

    def _notify(self, node_id: int, level: TrustLevel) -> None:
        for listener in self._listeners:
            listener(node_id, level)

    def _age(self) -> None:
        if self._config.aging_amount:
            for node in list(self._direct):
                record = self._direct[node]
                record.count = max(0,
                                   record.count - self._config.aging_amount)
                if record.count == 0:
                    del self._direct[node]
        horizon = self._sim.now - self._config.peer_report_ttl
        for node in list(self._peer_reports):
            if self._peer_reports[node] < horizon:
                del self._peer_reports[node]
        if not self._direct and not self._peer_reports:
            self._aging.stop()
