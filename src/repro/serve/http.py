"""HTTP/1.1 message framing — the only copy in ``src``.

One message is a start line, headers (only ``Content-Length`` matters)
and a body of exactly that many bytes, framed the same way in both
directions: the service and the tests' client share these functions, and
what a start line *means* stays with the caller. Anything else a peer
can put on the wire raises :class:`~repro.serve.protocol.ProtocolError`,
after which the stream cannot be re-framed: answer once and close.
"""

from __future__ import annotations

import asyncio

from repro.serve.protocol import ProtocolError

#: Largest body :func:`read_message` will read.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Most header lines, and header bytes in all, :func:`read_message` will
#: read before the blank line: a peer sending headers forever is refused
#: instead of holding its connection task.
MAX_HEADER_LINES = 100
MAX_HEADER_BYTES = 64 * 1024

#: Seconds a message's headers and body may take to arrive once its
#: start line has: a peer that stalls mid-message is refused instead of
#: holding its connection task. The wait for the next start line (an
#: idle keep-alive connection) is not bounded.
MESSAGE_DEADLINE_S = 30.0

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
            409: "Conflict", 429: "Too Many Requests",
            503: "Service Unavailable"}


def status_line(status: int) -> str:
    """The start line of a response."""
    return f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}"


def frame_message(start_line: str, body: bytes = b"",
                  keep_alive: bool = True) -> bytes:
    """One message on the wire: start line, headers, JSON ``body``."""
    return (f"{start_line}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}"
            f"\r\n\r\n").encode("ascii") + body


async def _read_line(reader: asyncio.StreamReader) -> str:
    try:
        return (await reader.readline()).decode("ascii")
    except ValueError as exc:
        # the line overran the reader's limit, or is not ASCII
        raise ProtocolError(f"bad HTTP line: {exc}") from None


async def read_message(reader: asyncio.StreamReader,
                       ) -> tuple[str, bytes] | None:
    """Read one message: ``(start line, body)``.

    ``None`` means the peer closed the connection between messages; a
    peer hanging up inside a body is :class:`asyncio.IncompleteReadError`.
    """
    start_line = (await _read_line(reader)).strip()
    if not start_line:
        return None
    try:
        body = await asyncio.wait_for(_read_headers_and_body(reader),
                                      MESSAGE_DEADLINE_S)
    except asyncio.TimeoutError:
        raise ProtocolError(
            f"message incomplete {MESSAGE_DEADLINE_S} s after its start "
            f"line") from None
    return start_line, body


async def _read_headers_and_body(reader: asyncio.StreamReader) -> bytes:
    length = lines = size = 0
    while (header := await _read_line(reader)).strip():
        lines, size = lines + 1, size + len(header)
        if lines > MAX_HEADER_LINES or size > MAX_HEADER_BYTES:
            raise ProtocolError(
                f"header block over {MAX_HEADER_LINES} lines or "
                f"{MAX_HEADER_BYTES} bytes")
        name, _, value = header.partition(":")
        if name.strip().lower() == "content-length":
            try:
                length = int(value) if value.strip().isdigit() else -1
            except ValueError:  # more digits than int() will parse
                length = -1
    if not 0 <= length <= MAX_BODY_BYTES:
        raise ProtocolError(
            f"Content-Length must be a number in 0..{MAX_BODY_BYTES}")
    return await reader.readexactly(length) if length else b""


async def read_request(reader: asyncio.StreamReader,
                       ) -> tuple[str, str, bytes] | None:
    """:func:`read_message` for a server: ``(METHOD, path, body)``."""
    message = await read_message(reader)
    if message is None:
        return None
    start_line, body = message
    try:
        method, path, _version = start_line.split()
    except ValueError:
        raise ProtocolError(
            f"bad request line {start_line[:80]!r}") from None
    return method.upper(), path, body


__all__ = ["MAX_BODY_BYTES", "MAX_HEADER_BYTES", "MAX_HEADER_LINES",
           "MESSAGE_DEADLINE_S", "frame_message", "read_message",
           "read_request", "status_line"]
