"""Wire format for protocol messages: exact byte encodings.

Maps every protocol message to/from bytes via the TLV codec
(:mod:`repro.codec`), giving the simulator *exact* packet sizes instead of
header-size estimates.  Decoding validates structure strictly — malformed
bytes raise, which models a parser that drops garbage frames.

Encode-once fast path: protocol messages are frozen (immutable, hashable)
dataclasses, so a message's wire bytes are a pure function of its identity
and can be memoized.  A node both sizes (``wire_size``) and transmits
(``encode_message``) the same object, and gossip packets rebuilt from the
same entries compare equal — the cache collapses all of those into one
TLV encoding.  :class:`~repro.radio.neighbors.HelloMessage` stays out of
this value-keyed cache: every beacon's ``(sender, seq)`` is unique, so a
HELLO frame could never be hit again (its ``extras`` dict is unhashable
too).  The work a beacon's receivers share — its signed bytes and its
parsed overlay state — is memoized per beacon instead (see
:func:`repro.crypto.digest.signed_bytes` and
:mod:`repro.overlay.manager`).
"""

from __future__ import annotations

from collections import OrderedDict
from time import perf_counter
from typing import Any, Tuple, Union

from .. import codec, profiling
from ..radio.neighbors import HelloMessage
from .messages import (
    DataMessage,
    FindMissingMessage,
    GossipMessage,
    GossipPacket,
    MessageId,
    RequestMessage,
)

__all__ = ["encode_message", "decode_message", "wire_size", "WireError",
           "configure_cache", "cache_info"]

WireMessage = Union[DataMessage, GossipPacket, RequestMessage,
                    FindMissingMessage, HelloMessage]


class WireError(ValueError):
    """Raised on messages that cannot be encoded or decoded."""


_DATA, _GOSSIP_PKT, _REQUEST, _FIND, _HELLO = "D", "G", "R", "F", "H"

#: Message types whose encodings may be memoized: frozen, fully hashable.
_CACHEABLE = (DataMessage, GossipPacket, RequestMessage, FindMissingMessage)

_CACHE_CAPACITY = 4096
_cache: "OrderedDict[WireMessage, bytes]" = OrderedDict()
_cache_hits = 0
_cache_misses = 0


def configure_cache(capacity: int) -> None:
    """Resize (and clear) the encode-once cache; 0 disables it globally."""
    global _CACHE_CAPACITY, _cache_hits, _cache_misses
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0: {capacity}")
    _CACHE_CAPACITY = capacity
    _cache.clear()
    _cache_hits = 0
    _cache_misses = 0


def cache_info() -> Tuple[int, int, int, int]:
    """``(hits, misses, current_size, capacity)`` of the encode cache."""
    return _cache_hits, _cache_misses, len(_cache), _CACHE_CAPACITY


def _gossip_fields(gossip: GossipMessage) -> list:
    return [gossip.msg_id.originator, gossip.msg_id.seq, gossip.signature]


def _gossip_from_fields(fields: Any) -> GossipMessage:
    originator, seq, signature = fields
    _expect(isinstance(originator, int) and isinstance(seq, int)
            and isinstance(signature, bytes), "bad gossip fields")
    return GossipMessage(msg_id=MessageId(originator, seq),
                         signature=signature)


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise WireError(message)


def encode_message(message: WireMessage, *, cache: bool = True) -> bytes:
    """Serialize any protocol message to its exact wire bytes.

    ``cache=True`` (the default) memoizes encodings of immutable message
    types in a bounded module-level LRU; pass ``cache=False`` to force a
    fresh encoding (ablation / tests).
    """
    global _cache_hits, _cache_misses
    if cache and _CACHE_CAPACITY > 0 and isinstance(message, _CACHEABLE):
        encoded = _cache.get(message)
        if encoded is not None:
            _cache.move_to_end(message)
            _cache_hits += 1
            prof = profiling.ACTIVE
            if prof is not None:
                prof.add("codec.encode_hit")
            return encoded
        _cache_misses += 1
        encoded = _encode_uncached(message)
        _cache[message] = encoded
        if len(_cache) > _CACHE_CAPACITY:
            _cache.popitem(last=False)
        return encoded
    return _encode_uncached(message)


def _encode_uncached(message: WireMessage) -> bytes:
    prof = profiling.ACTIVE
    if prof is None:
        return _encode_body(message)
    start = perf_counter()
    encoded = _encode_body(message)
    prof.add("codec.encode", perf_counter() - start)
    return encoded


def _encode_body(message: WireMessage) -> bytes:
    if isinstance(message, DataMessage):
        body = [_DATA, message.msg_id.originator, message.msg_id.seq,
                message.payload, message.signature, message.ttl,
                _gossip_fields(message.gossip)
                if message.gossip is not None else None]
    elif isinstance(message, GossipPacket):
        body = [_GOSSIP_PKT,
                [_gossip_fields(entry) for entry in message.entries]]
    elif isinstance(message, RequestMessage):
        body = [_REQUEST, _gossip_fields(message.gossip), message.requester,
                message.target, message.signature]
    elif isinstance(message, FindMissingMessage):
        body = [_FIND, _gossip_fields(message.gossip),
                message.claimed_holder, message.initiator, message.ttl,
                message.signature]
    elif isinstance(message, HelloMessage):
        body = [_HELLO, message.sender, message.seq, message.extras,
                message.signature]
    else:
        raise WireError(f"not a wire message: {type(message).__name__}")
    try:
        return codec.encode(body)
    except codec.CodecError as exc:
        raise WireError(str(exc)) from exc


def decode_message(data: bytes) -> WireMessage:
    """Parse wire bytes back into a message object (strict)."""
    prof = profiling.ACTIVE
    if prof is None:
        return _decode_body(data)
    start = perf_counter()
    message = _decode_body(data)
    prof.add("codec.decode", perf_counter() - start)
    return message


def _decode_body(data: bytes) -> WireMessage:
    try:
        body = codec.decode(data)
    except codec.CodecError as exc:
        raise WireError(str(exc)) from exc
    _expect(isinstance(body, list) and body, "empty frame")
    kind = body[0]
    if kind == _DATA:
        _expect(len(body) == 7, "bad DATA frame")
        _, originator, seq, payload, signature, ttl, gossip_fields = body
        _expect(isinstance(payload, bytes) and isinstance(signature, bytes),
                "bad DATA fields")
        gossip = (_gossip_from_fields(gossip_fields)
                  if gossip_fields is not None else None)
        return DataMessage(msg_id=MessageId(originator, seq),
                           payload=payload, signature=signature, ttl=ttl,
                           gossip=gossip)
    if kind == _GOSSIP_PKT:
        _expect(len(body) == 2 and isinstance(body[1], list),
                "bad GOSSIP frame")
        return GossipPacket(entries=tuple(_gossip_from_fields(fields)
                                          for fields in body[1]))
    if kind == _REQUEST:
        _expect(len(body) == 5, "bad REQUEST frame")
        _, gossip_fields, requester, target, signature = body
        return RequestMessage(gossip=_gossip_from_fields(gossip_fields),
                              requester=requester, target=target,
                              signature=signature)
    if kind == _FIND:
        _expect(len(body) == 6, "bad FIND frame")
        _, gossip_fields, holder, initiator, ttl, signature = body
        return FindMissingMessage(gossip=_gossip_from_fields(gossip_fields),
                                  claimed_holder=holder,
                                  initiator=initiator, ttl=ttl,
                                  signature=signature)
    if kind == _HELLO:
        _expect(len(body) == 5, "bad HELLO frame")
        _, sender, seq, extras, signature = body
        _expect(isinstance(extras, dict), "bad HELLO extras")
        return HelloMessage(sender=sender, seq=seq,
                            extras=_freeze_extras(extras),
                            signature=signature)
    raise WireError(f"unknown frame kind {kind!r}")


def _freeze_extras(extras: dict) -> dict:
    """Lists inside decoded extras become tuples (matching what the
    producers put in)."""
    def freeze(value):
        if isinstance(value, list):
            return tuple(freeze(item) for item in value)
        if isinstance(value, dict):
            return {key: freeze(item) for key, item in value.items()}
        return value
    return {key: freeze(value) for key, value in extras.items()}


def wire_size(message: WireMessage, *, cache: bool = True) -> int:
    """Exact on-air size of the message in bytes."""
    return len(encode_message(message, cache=cache))
