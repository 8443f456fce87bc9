"""HTTP/1.1 framing (:mod:`repro.serve.http`): what one message looks
like on the wire, read back however the packets happen to split, and
every malformed shape ending in a typed error instead of a stray
``ValueError`` inside the event loop."""

import asyncio
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import http
from repro.serve.http import (
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    MAX_HEADER_LINES,
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


# ----------------------------------------------------------------------
# fuzzing: random chunkings of random and hostile byte streams


#: Longest any single case may take: a reader that is still waiting when
#: it passes holds its connection task, which is the bug.
DEADLINE_S = 2.0


def drive(pieces, reader_fn=read_message):
    """Feed ``pieces`` (any iterable of byte strings, endless ones too;
    then EOF) to a StreamReader, the reader running between pieces, and
    return how ``reader_fn`` ended: ``("messages", [...])`` after a
    ``None``, or ``("error", exc)`` for a typed error. Anything else —
    a hang past :data:`DEADLINE_S` included — propagates."""
    async def scenario():
        reader = asyncio.StreamReader(limit=2 ** 16)

        async def feed():
            for piece in pieces:
                reader.feed_data(piece)
                await asyncio.sleep(0)
            reader.feed_eof()

        feeder = asyncio.ensure_future(feed())
        messages = []
        try:
            while (message := await reader_fn(reader)) is not None:
                messages.append(message)
        except (ProtocolError, asyncio.IncompleteReadError) as exc:
            return "error", exc
        finally:
            feeder.cancel()
        return "messages", messages

    return asyncio.run(asyncio.wait_for(scenario(), DEADLINE_S))


def chunked(wire: bytes, sizes: list[int]):
    """``wire`` cut at the cycled ``sizes``."""
    at = 0
    for size in itertools.cycle(sizes):
        if at >= len(wire):
            return
        yield wire[at:at + size]
        at += size


sizes = st.lists(st.integers(1, 4096), min_size=1, max_size=8)
tokens = st.text("abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=20)
headers = st.lists(st.tuples(tokens, st.text(
    st.characters(min_codepoint=32, max_codepoint=126), max_size=200)),
    max_size=20)


class TestFuzzedFraming:
    @settings(max_examples=60, deadline=None)
    @given(headers, st.binary(max_size=3000), sizes,
           st.sampled_from(["\r\n", "\n"]))
    def test_well_formed_reads_back_however_it_is_split(self, extra, body,
                                                        cuts, eol):
        lines = [f"{name}: {value}" for name, value in extra
                 if name.lower() != "content-length"]
        lines.append(f"Content-Length: {len(body)}")
        wire = eol.join(["POST /v1/jobs HTTP/1.1", *lines, "", ""]).encode()
        assert drive(chunked(wire + body, cuts), read_request) == (
            "messages", [("POST", "/v1/jobs", body)])

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(st.integers().map(str), st.text(
        st.characters(min_codepoint=32, max_codepoint=126), max_size=30)),
        st.binary(max_size=200), sizes)
    def test_any_content_length_is_a_message_or_a_typed_error(
            self, value, body, cuts):
        wire = (b"POST / HTTP/1.1\r\nContent-Length: " + value.encode()
                + b"\r\n\r\n" + body)
        how, what = drive(chunked(wire, cuts))
        if not (value.strip().isdigit()
                and int(value) <= MAX_BODY_BYTES):
            assert how == "error" and isinstance(what, ProtocolError)
        elif int(value) > len(body):
            assert isinstance(what, asyncio.IncompleteReadError)
        elif how == "messages":   # bytes past the body frame a next one
            assert what[0] == ("POST / HTTP/1.1", body[:int(value)])

    @settings(max_examples=60, deadline=None)
    @given(st.binary(min_size=1, max_size=2000), st.integers(0, 2000),
           sizes)
    def test_arbitrary_bytes_end_in_a_message_or_a_typed_error(
            self, junk, at, cuts):
        wire = frame_message("POST /v1/jobs HTTP/1.1", b"{}")
        wire = wire[:at] + junk + wire[at:]
        for reader_fn in (read_message, read_request):
            how, _ = drive(chunked(wire, cuts), reader_fn)
            assert how in ("messages", "error")

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4000), sizes)
    def test_an_endless_header_stream_is_refused(self, width, cuts):
        line = b"X-Pad: " + b"a" * width + b"\r\n"
        stream = itertools.chain.from_iterable(itertools.chain(
            [[b"POST / HTTP/1.1\r\n"]],
            map(chunked, itertools.repeat(line), itertools.repeat(cuts))))
        how, what = drive(stream, read_request)
        assert how == "error" and isinstance(what, ProtocolError)
        assert "header block" in str(what)

    def test_the_header_caps_are_where_they_say(self):
        head = b"GET / HTTP/1.1\r\n"
        at_cap = head + b"X-A: b\r\n" * MAX_HEADER_LINES + b"\r\n"
        assert drive([at_cap]) == ("messages", [("GET / HTTP/1.1", b"")])
        how, what = drive([head + b"X-A: b\r\n" * (MAX_HEADER_LINES + 1)
                           + b"\r\n"])
        assert how == "error" and "header block" in str(what)
        fat = b"X-A: " + b"b" * 999 + b"\r\n"   # 1 kB a line
        how, what = drive([head + fat * (MAX_HEADER_BYTES // len(fat) + 1)
                           + b"\r\n"])
        assert how == "error" and "header block" in str(what)

    @pytest.mark.parametrize("sent", [
        b"POST /v1/jobs HTTP/1.1\r\nContent-Le",                  # in headers
        b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 9\r\n\r\n{}",  # in body
    ], ids=["headers", "body"])
    def test_a_client_stalled_mid_message_is_refused(self, monkeypatch,
                                                     sent):
        monkeypatch.setattr(http, "MESSAGE_DEADLINE_S", 0.05)

        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(sent)   # ...and then nothing, and no EOF
            with pytest.raises(ProtocolError, match="incomplete"):
                await read_request(reader)

        asyncio.run(asyncio.wait_for(scenario(), DEADLINE_S))

    def test_an_idle_keep_alive_connection_is_not_refused(self,
                                                          monkeypatch):
        monkeypatch.setattr(http, "MESSAGE_DEADLINE_S", 0.05)

        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(frame_message("GET / HTTP/1.1"))
            assert await read_request(reader) == ("GET", "/", b"")
            # no next start line yet: still waiting, well past the deadline
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(read_request(reader), 0.2)

        asyncio.run(asyncio.wait_for(scenario(), DEADLINE_S))
