"""Protocol wire messages (Figures 3 and 4 of the paper).

Four message classes cross the radio:

* :class:`DataMessage` — ``msg_id ∥ node_id ∥ msg ∥ sig(msg_id ∥ node_id ∥
  msg)``, flooded along the overlay;
* :class:`GossipMessage` — ``msg_id ∥ node_id ∥ sig(msg_id ∥ node_id)``,
  the originator-signed existence proof that is gossiped by everyone;
* :class:`RequestMessage` (``REQUEST_MSG``) — a node asking the gossip
  sender and its overlay neighbors for a message it misses;
* :class:`FindMissingMessage` (``FIND_MISSING_MSG``) — an overlay node's
  TTL=2 search that bypasses a potential Byzantine neighbor.

Gossip entries are aggregated: a :class:`GossipPacket` carries several
:class:`GossipMessage` entries ("as gossips are sent periodically, multiple
gossip messages are aggregated into one packet").

Every message exposes a ``header`` mapping — the locally-anticipatable part
(type, originator, sequence number) that MUTE expectations match on — and a
``signed_fields`` tuple defining exactly which bytes the signature covers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, NamedTuple, Optional, Tuple

from ..crypto.digest import encode_fields, signed_bytes, signed_copy
from ..crypto.keystore import KeyDirectory, Signer

__all__ = [
    "MessageId",
    "DataMessage",
    "GossipMessage",
    "GossipPacket",
    "RequestMessage",
    "FindMissingMessage",
    "DATA",
    "GOSSIP",
    "REQUEST_MSG",
    "FIND_MISSING_MSG",
]

# Wire-kind tags (double as Packet.kind for physical-layer accounting).
DATA = "data"
GOSSIP = "gossip"
REQUEST_MSG = "request"
FIND_MISSING_MSG = "find_missing"


class MessageId(NamedTuple):
    """Globally unique message identifier: (originator, sequence number)."""

    originator: int
    seq: int


def data_header(msg_id: MessageId) -> Dict[str, Any]:
    """The anticipatable header of the DATA message carrying ``msg_id``
    (what MUTE expectations for a forwarding match against)."""
    return {"type": DATA, "originator": msg_id.originator, "seq": msg_id.seq}


@dataclass(frozen=True)
class DataMessage:
    """An application message in flight.

    ``gossip`` optionally piggybacks the originator's gossip proof on the
    DATA packet itself (footnote 5 of the paper); it is verified
    independently of the data signature.
    """

    msg_id: MessageId
    payload: bytes
    signature: bytes
    ttl: int = 1
    gossip: Optional["GossipMessage"] = None

    @property
    def header(self) -> Dict[str, Any]:
        return data_header(self.msg_id)

    def signed_fields(self) -> Tuple:
        # msg_id ∥ node_id ∥ msg — the ttl is mutable in flight and
        # deliberately outside the signature.
        return (self.msg_id.seq, self.msg_id.originator, self.payload)

    def verify(self, directory: KeyDirectory) -> bool:
        return directory.verify(self.msg_id.originator,
                                signed_bytes(self), self.signature,
                                msg=self.msg_id)

    def with_ttl(self, ttl: int) -> "DataMessage":
        return replace(self, ttl=ttl)

    def with_gossip(self, gossip: "GossipMessage") -> "DataMessage":
        return replace(self, gossip=gossip)

    @staticmethod
    def create(signer: Signer, seq: int, payload: bytes,
               ttl: int = 1) -> "DataMessage":
        msg_id = MessageId(signer.node_id, seq)
        signature = signer.sign(
            encode_fields((seq, signer.node_id, payload)))
        return DataMessage(msg_id=msg_id, payload=payload,
                           signature=signature, ttl=ttl)

    def wire_size(self, directory: KeyDirectory, header_size: int,
                  gossip_entry_size: int = 0) -> int:
        size = header_size + len(self.payload) + directory.signature_size
        if self.gossip is not None:
            size += gossip_entry_size + directory.signature_size
        return size


@dataclass(frozen=True)
class GossipMessage:
    """The originator-signed existence proof of a message.

    Only the originator can mint it (the signature covers the message id),
    so "if q gossips about messages that do not exist" the signature check
    fails and q is suspected — a Byzantine node cannot fabricate gossip for
    messages that were never broadcast.
    """

    msg_id: MessageId
    signature: bytes

    @property
    def header(self) -> Dict[str, Any]:
        return {"type": GOSSIP, "originator": self.msg_id.originator,
                "seq": self.msg_id.seq}

    def data_pattern_header(self) -> Dict[str, Any]:
        """Header of the DATA message this gossip announces."""
        return data_header(self.msg_id)

    def signed_fields(self) -> Tuple:
        return (self.msg_id.seq, self.msg_id.originator)

    def verify(self, directory: KeyDirectory) -> bool:
        return directory.verify(self.msg_id.originator,
                                signed_bytes(self), self.signature,
                                msg=self.msg_id)

    @staticmethod
    def create(signer: Signer, seq: int) -> "GossipMessage":
        return GossipMessage(
            msg_id=MessageId(signer.node_id, seq),
            signature=signer.sign(encode_fields((seq, signer.node_id))))


@dataclass(frozen=True)
class GossipPacket:
    """An aggregated batch of gossip entries sent each gossip period."""

    entries: Tuple[GossipMessage, ...]

    @property
    def header(self) -> Dict[str, Any]:
        return {"type": GOSSIP, "count": len(self.entries)}

    def wire_size(self, directory: KeyDirectory, header_size: int,
                  entry_size: int) -> int:
        per_entry = entry_size + directory.signature_size
        return header_size + per_entry * len(self.entries)


@dataclass(frozen=True)
class RequestMessage:
    """REQUEST_MSG: 'send me the message this gossip announces'.

    ``target`` is p_j of the pseudo-code — the node whose gossip revealed
    the gap; overlay neighbors overhearing the request also answer.  The
    request is signed by the requester so that a Byzantine node cannot
    frame others into VERBOSE indictments (the paper's no-impersonation
    assumption).
    """

    gossip: GossipMessage
    requester: int
    target: int
    signature: bytes = b""

    @property
    def header(self) -> Dict[str, Any]:
        return {"type": REQUEST_MSG,
                "originator": self.gossip.msg_id.originator,
                "seq": self.gossip.msg_id.seq,
                "requester": self.requester}

    def signed_fields(self) -> Tuple:
        return (REQUEST_MSG, self.gossip.msg_id.seq,
                self.gossip.msg_id.originator, self.requester, self.target)

    def verify(self, directory: KeyDirectory) -> bool:
        """Verify both the embedded gossip and the requester signature."""
        if not self.gossip.verify(directory):
            return False
        return directory.verify(self.requester,
                                signed_bytes(self), self.signature,
                                msg=self.gossip.msg_id)

    @staticmethod
    def create(signer: Signer, gossip: GossipMessage,
               target: int) -> "RequestMessage":
        unsigned = RequestMessage(gossip=gossip, requester=signer.node_id,
                                  target=target)
        return signed_copy(unsigned, signer.sign)


@dataclass(frozen=True)
class FindMissingMessage:
    """FIND_MISSING_MSG: an overlay node's two-hop search for a message it
    was asked for but never received.

    ``claimed_holder`` is p_k of the pseudo-code — the node whose gossip
    claimed possession of the message; besides overlay nodes, it is obliged
    to answer the search.  ``ttl`` starts at 2 "to bypass a potential
    neighboring Byzantine node".
    """

    gossip: GossipMessage
    claimed_holder: int
    initiator: int
    ttl: int = 2
    signature: bytes = b""

    @property
    def header(self) -> Dict[str, Any]:
        return {"type": FIND_MISSING_MSG,
                "originator": self.gossip.msg_id.originator,
                "seq": self.gossip.msg_id.seq,
                "initiator": self.initiator}

    def signed_fields(self) -> Tuple:
        # ttl is decremented in flight, hence excluded.
        return (FIND_MISSING_MSG, self.gossip.msg_id.seq,
                self.gossip.msg_id.originator, self.claimed_holder,
                self.initiator)

    def verify(self, directory: KeyDirectory) -> bool:
        if not self.gossip.verify(directory):
            return False
        return directory.verify(self.initiator,
                                signed_bytes(self), self.signature,
                                msg=self.gossip.msg_id)

    def with_ttl(self, ttl: int) -> "FindMissingMessage":
        return replace(self, ttl=ttl)

    @staticmethod
    def create(signer: Signer, gossip: GossipMessage, claimed_holder: int,
               ttl: int = 2) -> "FindMissingMessage":
        unsigned = FindMissingMessage(gossip=gossip,
                                      claimed_holder=claimed_holder,
                                      initiator=signer.node_id, ttl=ttl)
        return signed_copy(unsigned, signer.sign)
