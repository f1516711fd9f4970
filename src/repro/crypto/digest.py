"""Message digests and canonical serialization helpers.

All signing operations in the protocol run over a canonical byte encoding of
the message fields, so two nodes always agree on what was signed.  The
encoding is deliberately simple: length-prefixed fields, no external
dependencies, stable across Python versions.

Signed messages are frozen, so their canonical bytes are a pure function of
the instance: :func:`signed_bytes` encodes them once per object and every
later signer or verifier of that object reuses the bytes.  One HELLO beacon
is verified by each of its ~20 receivers, one gossip entry on every gossip
period.  Only bytes are memoized, never a verification verdict.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
from typing import Any, Callable, Iterable, TypeVar, Union

__all__ = ["sha256", "digest_int", "encode_fields", "signed_bytes",
           "signed_copy", "Fieldable"]

Fieldable = Union[bytes, str, int, float]
Signed = TypeVar("Signed")

#: Instance attribute holding a message's memoized signed bytes.
_MEMO = "_signed_cache"


def sha256(data: bytes) -> bytes:
    """SHA-256 digest of ``data``."""
    return hashlib.sha256(data).digest()


def digest_int(data: bytes, bits: int) -> int:
    """The leftmost ``bits`` bits of SHA-256(data) as an integer.

    This is the standard DSA hash-truncation rule (FIPS 186-4 §4.6): when the
    group order q has fewer bits than the hash, only the leftmost ``len(q)``
    bits of the digest are used.
    """
    if bits <= 0:
        raise ValueError(f"bits must be positive: {bits}")
    digest = hashlib.sha256(data).digest()
    value = int.from_bytes(digest, "big")
    excess = len(digest) * 8 - bits
    if excess > 0:
        value >>= excess
    return value


def _encode_one(field: Fieldable) -> bytes:
    if isinstance(field, bytes):
        tag, payload = b"b", field
    elif isinstance(field, str):
        tag, payload = b"s", field.encode("utf-8")
    elif isinstance(field, bool):  # bool before int: bool is an int subclass
        tag, payload = b"B", (b"\x01" if field else b"\x00")
    elif isinstance(field, int):
        length = max(1, (field.bit_length() + 8) // 8)  # signed encoding
        tag, payload = b"i", field.to_bytes(length, "big", signed=True)
    elif isinstance(field, float):
        tag, payload = b"f", struct.pack(">d", field)
    else:
        raise TypeError(f"cannot canonically encode {type(field).__name__}")
    return tag + struct.pack(">I", len(payload)) + payload


def encode_fields(fields: Iterable[Fieldable]) -> bytes:
    """Canonical, unambiguous byte encoding of a field sequence.

    Every field is tagged with its type and length-prefixed, so no two
    distinct field sequences produce the same encoding.
    """
    return b"".join(_encode_one(field) for field in fields)


def signed_bytes(message: Any) -> bytes:
    """``encode_fields(message.signed_fields())``, memoized on the instance.

    ``message`` must be a frozen dataclass, so its ``signed_fields`` never
    change.  The memo lives on the instance and cannot leak between
    distinct messages.
    """
    cached = getattr(message, _MEMO, None)
    if cached is None:
        cached = encode_fields(message.signed_fields())
        object.__setattr__(message, _MEMO, cached)
    return cached


def signed_copy(message: Signed, sign: Callable[[bytes], bytes]) -> Signed:
    """``message`` with ``signature=sign(signed_bytes(message))``.

    The copy keeps the memo: a ``signature`` field is never among the
    fields it signs.
    """
    data = signed_bytes(message)
    signed = dataclasses.replace(message, signature=sign(data))
    object.__setattr__(signed, _MEMO, data)
    return signed
