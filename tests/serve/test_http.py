"""HTTP/1.1 framing (:mod:`repro.serve.http`): what one message looks
like on the wire, read back however the packets happen to split, and
every malformed shape ending in a typed error instead of a stray
``ValueError`` inside the event loop."""

import asyncio

import pytest

from repro.serve.http import (
    MAX_BODY_BYTES,
    frame_message,
    read_message,
    read_request,
    status_line,
)
from repro.serve.protocol import ProtocolError


def read_all(wire: bytes, reader_fn=read_message, chunk: int | None = None,
             limit: int = 2 ** 16):
    """Feed ``wire`` (then EOF) to a StreamReader — whole, or ``chunk``
    bytes at a time with the reader running in between — and return what
    ``reader_fn`` makes of it, message after message, until ``None``."""
    async def scenario():
        reader = asyncio.StreamReader(limit=limit)

        async def feed():
            step = chunk or len(wire) or 1
            for i in range(0, len(wire), step):
                reader.feed_data(wire[i:i + step])
                await asyncio.sleep(0)  # let the reader see a partial message
            reader.feed_eof()

        feeder = asyncio.ensure_future(feed())
        messages = []
        try:
            while (message := await reader_fn(reader)) is not None:
                messages.append(message)
        finally:
            await feeder
        return messages

    return asyncio.run(scenario())


class TestRoundTrip:
    @pytest.mark.parametrize("body", [b"", b"{}", b'{"dat": "x\\ny"}',
                                      bytes(range(256)) * 300],
                             ids=["empty", "object", "escapes", "75kB-binary"])
    def test_frame_then_read_is_identity(self, body):
        wire = frame_message("POST /v1/jobs HTTP/1.1", body)
        assert read_all(wire) == [("POST /v1/jobs HTTP/1.1", body)]

    def test_keep_alive_stream_of_messages(self):
        wire = (frame_message("GET /v1/stats HTTP/1.1")
                + frame_message(status_line(202), b'{"job_id": "j1"}')
                + frame_message(status_line(404), b"{}", keep_alive=False))
        assert read_all(wire) == [
            ("GET /v1/stats HTTP/1.1", b""),
            ("HTTP/1.1 202 Accepted", b'{"job_id": "j1"}'),
            ("HTTP/1.1 404 Not Found", b"{}")]

    def test_split_across_packets_one_byte_at_a_time(self):
        body = b'{"k_schedule": [21, 33]}'
        wire = frame_message("POST /v1/jobs HTTP/1.1", body) * 2
        assert read_all(wire, chunk=1) == \
            [("POST /v1/jobs HTTP/1.1", body)] * 2

    def test_headers_it_does_not_know_are_skipped(self):
        wire = (b"GET /v1/stats HTTP/1.1\r\nHost: t\r\nX-Trace: a:b:c\r\n"
                b"content-LENGTH:  2 \r\n\r\nok")
        assert read_all(wire) == [("GET /v1/stats HTTP/1.1", b"ok")]

    def test_bare_newlines_are_accepted(self):
        assert read_all(b"GET / HTTP/1.1\nContent-Length: 1\n\nx") == \
            [("GET / HTTP/1.1", b"x")]

    def test_eof_between_messages_is_a_clean_end(self):
        assert read_all(b"") == []

    def test_connection_header_says_what_the_sender_will_do(self):
        assert b"Connection: keep-alive\r\n" in frame_message("X", b"")
        assert b"Connection: close\r\n" in frame_message(
            "X", b"", keep_alive=False)

    def test_unknown_status_still_frames(self):
        assert status_line(418).startswith("HTTP/1.1 418 ")


class TestMalformed:
    @pytest.mark.parametrize("wire,match", [
        (b"POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n", "Content-Length"),
        (b"POST / HTTP/1.1\r\nContent-Length: 1e3\r\n\r\n", "Content-Length"),
        (b"POST / HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n", "Content-Length"),
        (b"POST / HTTP/1.1\r\nContent-Length:\r\n\r\n", "Content-Length"),
        (b"POST / HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n",
         "Content-Length"),
        (f"POST / HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
         .encode(), "Content-Length"),
        (b"POST / HTTP/1.1\r\nX-Junk: \xff\xfe\r\n\r\n", "bad HTTP line"),
        (b"\xff\xfe / HTTP/1.1\r\n\r\n", "bad HTTP line"),
        (b"POST / HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n",
         "bad HTTP line"),
    ], ids=["negative", "float", "underscore", "blank", "5000-digits",
            "over-limit", "non-ascii-header", "non-ascii-start-line",
            "70kB-header-line"])
    def test_typed_error_never_a_bare_valueerror(self, wire, match):
        with pytest.raises(ProtocolError, match=match):
            read_all(wire)

    def test_peer_hanging_up_inside_a_body(self):
        with pytest.raises(asyncio.IncompleteReadError):
            read_all(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort")

    def test_body_at_the_limit_is_not_refused_by_its_header(self):
        wire = f"POST / HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES}\r\n\r\n"
        with pytest.raises(asyncio.IncompleteReadError):  # no body follows
            read_all(wire.encode())


class TestReadRequest:
    def test_splits_and_uppercases_the_request_line(self):
        wire = frame_message("post /v1/jobs HTTP/1.1", b"{}")
        assert read_all(wire, read_request) == [("POST", "/v1/jobs", b"{}")]

    @pytest.mark.parametrize("line", [b"garbage", b"GET /too many parts here",
                                      b"GET"])
    def test_garbage_request_line_is_a_typed_error(self, line):
        with pytest.raises(ProtocolError, match="bad request line"):
            read_all(line + b"\r\n\r\n", read_request)
