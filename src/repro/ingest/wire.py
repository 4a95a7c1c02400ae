"""The framed wire protocol of the ingestion tier.

One event on the wire is one *frame*: a 4-byte big-endian length prefix
followed by that many bytes of UTF-8 text — the textual serialisation
(:func:`repro.terms.parser.to_text`, the parser's round-trip-safe term
surface) of a SOAP-style :class:`~repro.web.soap.Envelope` term::

    envelope{ header{ sender[...], sent-at[...], message-id[...] },
              body{ <event term> } }

Reusing the textual term surface means the wire format gets the parser's
round-trip guarantee for free (property-tested in
``tests/ingest/test_wire.py``), stays human-readable in a packet dump,
and can carry *any* serialisable event term — including rule terms
(:func:`repro.core.meta.rule_to_term`) for Thesis-11 rule shipping.

Robustness contract: every malformed input — a truncated length prefix,
a frame longer than ``max_frame``, bytes that are not UTF-8, text that is
not a term, a term that is not an envelope — raises
:class:`~repro.errors.FrameError` (a :class:`~repro.errors.WebError`).
The transport catches it, counts it in
:class:`~repro.ingest.stats.IngestStats.malformed`, and keeps serving;
nothing on the wire can crash the server.
"""

from __future__ import annotations

import struct

from repro.errors import FrameError
from repro.terms.ast import Data
from repro.terms.parser import parse_data, to_text
from repro.web.soap import Envelope

#: Default ceiling on one frame's payload size (1 MiB).  A length prefix
#: above the ceiling is rejected *before* buffering, so a hostile or
#: corrupt prefix cannot make the server allocate unbounded memory.
MAX_FRAME = 1 << 20

_PREFIX = struct.Struct(">I")


def frame(payload: bytes, max_frame: int = MAX_FRAME) -> bytes:
    """Wrap *payload* in a length-prefixed frame."""
    if len(payload) > max_frame:
        raise FrameError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{max_frame}-byte frame ceiling"
        )
    return _PREFIX.pack(len(payload)) + payload


def encode_event(term: Data, *, sender: str = "", sent_at: float = 0.0,
                 message_id: "int | None" = None,
                 max_frame: int = MAX_FRAME) -> bytes:
    """Encode one event term as a framed envelope (what clients send).

    ``message_id=None`` lets :class:`~repro.web.soap.Envelope` allocate
    from its standalone counter; pass an id (e.g. from
    :meth:`repro.web.network.Network.next_message_id`) for per-simulation
    dense numbering.
    """
    if message_id is None:
        envelope = Envelope(term, sender=sender, sent_at=sent_at)
    else:
        envelope = Envelope(term, sender=sender, sent_at=sent_at,
                            message_id=message_id)
    return frame(to_text(envelope.to_term()).encode("utf-8"), max_frame)


def decode_payload(payload: bytes) -> Envelope:
    """Decode one frame's payload back into an :class:`Envelope`.

    Raises :class:`FrameError` for anything that is not the UTF-8 text of
    an envelope term wrapping a data-term body.
    """
    try:
        text = payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FrameError(f"frame payload is not UTF-8: {exc}") from exc
    try:
        term = parse_data(text)
    except Exception as exc:  # ParseError and friends — all malformed wire
        raise FrameError(f"frame payload is not a term: {exc}") from exc
    if not isinstance(term, Data):
        raise FrameError(f"frame payload is a bare scalar, not an envelope")
    try:
        return Envelope.from_term(term)
    except Exception as exc:  # WebError("not an envelope: ...") et al.
        raise FrameError(f"frame payload is not an event envelope: {exc}") from exc


class FrameDecoder:
    """Incremental frame reassembly over an arbitrary byte stream.

    Feed it whatever chunks the transport produces; it returns the
    complete frame payloads found so far and buffers the rest.  A length
    prefix above ``max_frame`` is a fatal framing error — the stream
    cannot be resynchronised, so the connection should be closed — but
    frames completed *before* the bad prefix in the same chunk are not
    lost: they are returned, and the :class:`FrameError` is raised on the
    next :meth:`feed` or :meth:`finish` call (immediately, when nothing
    preceded it).  :meth:`finish` also raises if the stream ended
    mid-frame (a truncated length prefix or payload).
    """

    def __init__(self, max_frame: int = MAX_FRAME) -> None:
        self.max_frame = max_frame
        self._buffer = bytearray()
        self._error: "FrameError | None" = None

    def feed(self, data: bytes) -> list[bytes]:
        """Buffer *data*; return every frame payload completed by it."""
        if self._error is not None:
            raise self._error
        self._buffer.extend(data)
        payloads: list[bytes] = []
        while len(self._buffer) >= _PREFIX.size:
            (length,) = _PREFIX.unpack_from(self._buffer)
            if length > self.max_frame:
                self._error = FrameError(
                    f"declared frame length {length} exceeds the "
                    f"{self.max_frame}-byte frame ceiling"
                )
                if payloads:
                    return payloads  # deferred: raised on the next call
                raise self._error
            if len(self._buffer) < _PREFIX.size + length:
                break
            payloads.append(bytes(self._buffer[_PREFIX.size:_PREFIX.size + length]))
            del self._buffer[:_PREFIX.size + length]
        return payloads

    @property
    def pending(self) -> int:
        """Bytes buffered towards an incomplete frame."""
        return len(self._buffer)

    def finish(self) -> None:
        """Assert the stream ended on a frame boundary."""
        if self._error is not None:
            raise self._error
        if self._buffer:
            raise FrameError(
                f"stream ended mid-frame with {len(self._buffer)} buffered "
                "byte(s) (truncated length prefix or payload)"
            )


def unframe(data: bytes, max_frame: int = MAX_FRAME) -> list[bytes]:
    """Split a complete byte string into its frame payloads.

    Convenience for tests and file-based replay: a one-shot
    :class:`FrameDecoder` run that also checks the final boundary.
    """
    decoder = FrameDecoder(max_frame)
    payloads = decoder.feed(data)
    decoder.finish()
    return payloads
