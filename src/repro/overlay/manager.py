"""The overlay maintenance driver.

§3.3: "Overlay maintenance is executed by a distributed protocol.  There is
no global knowledge and each node must decide whether it considers itself
an overlay node or not. ... every correct overlay node periodically
publishes this fact to its neighbors ... In each computation step, each
node makes a local computation about whether it thinks it should be in the
overlay or not, and then exchanges its local information with its
neighbors."

The manager wires together:

* the :class:`NeighborService` — state exchange rides piggybacked on the
  signed HELLO beacons ("most overlay maintenance messages can be
  piggybacked on gossip messages");
* the :class:`TrustFailureDetector` — untrusted neighbors are invisible to
  the election, and neighbors' suspicion reports demote third parties to
  ``UNKNOWN`` ("a node that suspects one of its neighbors should notify its
  other neighbors about this suspicion");
* an :class:`ElectionRule` (CDS or MIS+B) that makes the local decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from ..des.kernel import Simulator
from ..des.timers import PeriodicTask
from ..des.random import RandomStream
from ..fd.trust import TrustFailureDetector, TrustLevel
from ..radio.neighbors import NeighborService
from .state import ElectionRule, LocalView, NeighborReport, NodeStatus

__all__ = ["OverlayConfig", "OverlayManager"]

_EXTRAS_KEY = "ov"


#: The receiver-independent part of a neighbour's piggybacked state:
#: status, MIS claim, neighbours, MIS neighbours, suspects.
_ParsedState = Tuple[NodeStatus, bool, FrozenSet[int], FrozenSet[int],
                     FrozenSet[int]]


def _parse_state(state: Dict[str, Any]) -> Optional[_ParsedState]:
    """Parse one piggybacked overlay state; None when it is malformed."""
    try:
        status = NodeStatus(state.get("status", "passive"))
        neighbors = frozenset(int(n) for n in state.get("nbrs", ()))
        mis_neighbors = frozenset(int(n) for n in state.get("misnbrs", ()))
        suspects = frozenset(int(n) for n in state.get("suspects", ()))
        mis = bool(state.get("mis", False))
    except (TypeError, ValueError):
        return None
    return status, mis, neighbors, mis_neighbors, suspects


#: Parses of the most recent beacons' states, keyed by the state dict's
#: identity.  Every receiver of one beacon gets the same dict object, and
#: a sent HELLO's extras are never mutated, so the parse is done once per
#: beacon.  Each entry holds the dict itself, so no other object can take
#: its id while the entry lives; the oldest entry is evicted past the bound.
_PARSED: Dict[int, Tuple[Dict[str, Any], Optional[_ParsedState]]] = {}
_PARSED_BOUND = 256


def _parsed_state(state: Dict[str, Any]) -> Optional[_ParsedState]:
    """:func:`_parse_state`, computed once per state object."""
    entry = _PARSED.get(id(state))
    if entry is not None:
        return entry[1]
    parsed = _parse_state(state)
    if len(_PARSED) >= _PARSED_BOUND:
        del _PARSED[next(iter(_PARSED))]
    _PARSED[id(state)] = (state, parsed)
    return parsed


@dataclass(frozen=True)
class OverlayConfig:
    step_period: float = 1.0        # seconds between local computation steps
    report_timeout: float = 4.0     # discard neighbor reports older than this

    def __post_init__(self) -> None:
        if self.step_period <= 0:
            raise ValueError("step_period must be positive")
        if self.report_timeout <= 0:
            raise ValueError("report_timeout must be positive")


class OverlayManager:
    """One node's view of — and participation in — the overlay."""

    def __init__(self, sim: Simulator, node_id: int,
                 neighbors: NeighborService, trust: TrustFailureDetector,
                 rule: ElectionRule, rng: RandomStream,
                 config: OverlayConfig = OverlayConfig(),
                 force_active: Optional[bool] = None):
        self._sim = sim
        self._node_id = node_id
        self._neighbors = neighbors
        self._trust = trust
        self._rule = rule
        self._config = config
        self._status = NodeStatus.PASSIVE
        self._mis = False
        self._reports: Dict[int, NeighborReport] = {}
        self._force_active = force_active
        self._status_listeners: List = []
        self._step_task = PeriodicTask(sim, config.step_period, self.step_now,
                                       jitter=0.2, rng=rng)
        neighbors.add_extras_provider(self._publish_state)
        neighbors.add_listener(self._on_neighbor_state)

    def add_status_listener(self, listener) -> None:
        """``listener(node_id, new_status)`` fires on every status flip."""
        self._status_listeners.append(listener)

    # ------------------------------------------------------------------
    @property
    def node_id(self) -> int:
        return self._node_id

    @property
    def rule(self) -> ElectionRule:
        return self._rule

    @property
    def status(self) -> NodeStatus:
        return self._status

    @property
    def in_overlay(self) -> bool:
        """OVERLAY membership: the node currently considers itself active."""
        return self._status is NodeStatus.ACTIVE

    def start(self) -> None:
        self.step_now()
        self._step_task.start()

    def stop(self) -> None:
        self._step_task.stop()

    # ------------------------------------------------------------------
    # Queries used by the broadcast protocol
    # ------------------------------------------------------------------
    def overlay_neighbors(self) -> List[int]:
        """OL(1, p): direct neighbors believed to be in the overlay.

        Excludes UNTRUSTED nodes — "correct nodes do not consider mute and
        verbose nodes as their overlay neighbors".
        """
        candidates = self._trust.trusted_subset(self._neighbors.neighbors(),
                                                TrustLevel.UNKNOWN)
        return [n for n in candidates
                if (report := self._fresh_report(n)) is not None
                and report.status is NodeStatus.ACTIVE]

    def trusted_neighbors(self) -> List[int]:
        return self._trust.trusted_subset(self._neighbors.neighbors())

    def neighbor_report(self, node_id: int) -> Optional[NeighborReport]:
        return self._reports.get(node_id)

    # ------------------------------------------------------------------
    # Computation step (§3.3)
    # ------------------------------------------------------------------
    def step_now(self) -> NodeStatus:
        """Run one local computation step and adopt the decision."""
        previous = self._status
        if self._force_active is not None:
            self._status = (NodeStatus.ACTIVE if self._force_active
                            else NodeStatus.PASSIVE)
            self._mis = self._force_active
        else:
            view = self.build_view()
            self._mis = self._rule.mis_member(view)
            # The rule sees our fresh MIS claim the same way neighbors do.
            self._status = self._rule.decide(view)
        if self._status is not previous:
            for listener in self._status_listeners:
                listener(self._node_id, self._status)
        return self._status

    def build_view(self) -> LocalView:
        trusted = frozenset(self.trusted_neighbors())
        neighbor_neighbors: Dict[int, frozenset] = {}
        neighbor_status: Dict[int, NodeStatus] = {}
        neighbor_mis: Dict[int, bool] = {}
        neighbor_mis_neighbors: Dict[int, frozenset] = {}
        for neighbor in trusted:
            report = self._fresh_report(neighbor)
            if report is None:
                continue
            neighbor_neighbors[neighbor] = report.neighbors
            neighbor_status[neighbor] = report.status
            neighbor_mis[neighbor] = report.mis_member
            neighbor_mis_neighbors[neighbor] = report.mis_neighbors
        return LocalView(
            node_id=self._node_id,
            trusted_neighbors=trusted,
            neighbor_neighbors=neighbor_neighbors,
            neighbor_status=neighbor_status,
            neighbor_mis=neighbor_mis,
            neighbor_mis_neighbors=neighbor_mis_neighbors,
        )

    # ------------------------------------------------------------------
    # State exchange (piggybacked on HELLOs)
    # ------------------------------------------------------------------
    def _publish_state(self) -> Dict[str, Any]:
        neighbors = self._neighbors.neighbors()  # sorted, as is any subset
        mis_adjacent = tuple(
            n for n in self._trust.trusted_subset(neighbors)
            if (report := self._fresh_report(n)) is not None
            and report.mis_member)
        return {
            _EXTRAS_KEY: {
                "status": self._status.value,
                "mis": self._mis,
                "nbrs": tuple(neighbors),
                "misnbrs": mis_adjacent,
                "suspects": tuple(self._trust.untrusted_nodes()),
            }
        }

    def _on_neighbor_state(self, sender: int,
                           extras: Dict[str, Any]) -> None:
        state = extras.get(_EXTRAS_KEY)
        if not isinstance(state, dict):
            return
        parsed = _parsed_state(state)
        if parsed is None:
            return  # malformed state from a Byzantine node: ignore
        status, mis, neighbors, mis_neighbors, suspects = parsed
        self._reports[sender] = NeighborReport(
            status=status, mis_member=mis, neighbors=neighbors,
            mis_neighbors=mis_neighbors, suspects=suspects,
            updated_at=self._sim.now)
        for suspected in suspects:
            if suspected == self._node_id:
                continue  # reports about ourselves are not actionable
            self._trust.report_from_peer(sender, suspected)

    def _fresh_report(self, node_id: int) -> Optional[NeighborReport]:
        report = self._reports.get(node_id)
        if report is None:
            return None
        if self._sim.now - report.updated_at > self._config.report_timeout:
            return None
        return report
