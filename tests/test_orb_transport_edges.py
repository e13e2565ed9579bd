"""Edge-case tests for the TCP transport.

Malformed wire input (empty frames, oversized frames, frames of an
unknown type, connections cut mid-frame) must never kill a serving
thread or poison other callers, frame-size limits are enforced in both
directions, concurrent invokes are safe, a two-way reply follows every
oneway sent before it, connection bookkeeping must not leak, and a
shut-down transport leaves no thread behind.
"""

import gc
import socket
import struct
import sys
import threading
import time
import weakref

import pytest

from repro.orb.cdr import CdrDecoder, CdrEncoder, String
from repro.orb.core import Orb
from repro.orb.exceptions import CommunicationError
from repro.orb.idl import InterfaceDef, Operation, Parameter
from repro.orb.transport import (
    MAX_FRAME_BYTES,
    InProcDomain,
    _send_frame,
)

ECHO_INTERFACE = InterfaceDef("test/Echo", [
    Operation("echo", (Parameter("text", String),), returns=String),
    Operation("note", (Parameter("text", String),), oneway=True),
])


class Echo:
    def __init__(self):
        self.notes = []

    def echo(self, text):
        return text

    def note(self, text):
        self.notes.append(text)


def make_server():
    orb = Orb("edge-server", domain=InProcDomain(), tcp=True)
    ref = orb.activate(Echo(), ECHO_INTERFACE, key="test/echo")
    return orb, ref


def make_client():
    return Orb("edge-client", domain=InProcDomain(), tcp=True)


def raw_connect(orb):
    transport = orb._tcp
    return socket.create_connection((transport.host, transport.port),
                                    timeout=5)


def request_payload(key, operation, text):
    enc = CdrEncoder()
    enc.write_string(key)
    enc.write_string(operation)
    enc.write_string(text)
    return enc.getvalue()


def request_frame(key, operation, text, corr=7):
    """A hand-built request frame (type 0x11 + correlation id)."""
    body = b"\x11" + struct.pack(">I", corr) + request_payload(
        key, operation, text)
    return struct.pack(">I", len(body)) + body


def legacy_request_frame(key, operation, text):
    """A frame in the retired legacy framing (flag byte 1 = reply
    expected), as an old peer would send it."""
    body = b"\x01" + request_payload(key, operation, text)
    return struct.pack(">I", len(body)) + body


def recv_reply(sock, corr=7):
    header = sock.recv(4)
    (length,) = struct.unpack(">I", header)
    data = b""
    while len(data) < length:
        chunk = sock.recv(length - len(data))
        assert chunk, "server closed mid-reply"
        data += chunk
    assert data[0] == 0x12                          # reply frame
    assert struct.unpack(">I", data[1:5])[0] == corr
    dec = CdrDecoder(data[5:])
    assert dec.read_octet() == 0   # status ok
    return dec.read_string()


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestMalformedFrames:
    def test_empty_frame_is_dropped_and_connection_keeps_serving(self):
        server, _ = make_server()
        try:
            with raw_connect(server) as sock:
                sock.sendall(struct.pack(">I", 0))   # zero-length frame
                sock.sendall(request_frame("test/echo", "echo", "hi"))
                assert recv_reply(sock) == "hi"
            assert server._tcp.frames_rejected == 1
        finally:
            server.shutdown()

    def test_oversized_inbound_frame_drops_the_connection(self):
        server, _ = make_server()
        try:
            with raw_connect(server) as sock:
                # A header claiming more than MAX_FRAME_BYTES must kill
                # the connection before any allocation happens.
                sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
                sock.settimeout(5)
                assert sock.recv(1) == b""   # server closed it
            # The transport itself survives: a well-formed connection
            # right after still gets served.
            with raw_connect(server) as sock:
                sock.sendall(request_frame("test/echo", "echo", "ok"))
                assert recv_reply(sock) == "ok"
        finally:
            server.shutdown()

    def test_oversized_outbound_frame_fails_fast(self, monkeypatch):
        import repro.orb.transport as transport_mod

        monkeypatch.setattr(transport_mod, "MAX_FRAME_BYTES", 64)
        with pytest.raises(CommunicationError):
            # Rejected before the socket is touched (hence None works).
            _send_frame(None, b"x" * 65)

    def test_peer_close_mid_frame_does_not_kill_the_server(self):
        server, ref = make_server()
        client = make_client()
        try:
            with raw_connect(server) as sock:
                sock.sendall(struct.pack(">I", 100) + b"only ten b")
            # The half-written connection is gone; a real client on a
            # fresh connection is unaffected.
            stub = client.stub(ref, ECHO_INTERFACE)
            assert stub.echo("still alive") == "still alive"
        finally:
            client.shutdown()
            server.shutdown()

    def test_empty_frame_on_pipelined_connection_is_dropped(self):
        server, ref = make_server()
        client = make_client()
        try:
            stub = client.stub(ref, ECHO_INTERFACE)
            assert stub.echo("connect") == "connect"
            conn = next(iter(client._tcp._conns.values()))
            with conn.send_lock:
                conn.sock.sendall(struct.pack(">I", 0))
            assert wait_for(lambda: server._tcp.frames_rejected == 1)
            assert stub.echo("after") == "after"
        finally:
            client.shutdown()
            server.shutdown()


class TestConcurrentInvokes:
    @pytest.mark.parametrize("shared_stub", [False, True])
    def test_threaded_echo_storm(self, shared_stub):
        server, ref = make_server()
        client = make_client()
        errors = []
        shared = client.stub(ref, ECHO_INTERFACE)

        def worker(tid):
            try:
                stub = (shared if shared_stub
                        else client.stub(ref, ECHO_INTERFACE))
                for i in range(25):
                    text = f"t{tid}-{i}"
                    if stub.echo(text) != text:
                        raise AssertionError("echo mismatch")
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)   # interleave callers as often as possible
        try:
            threads = [threading.Thread(target=worker, args=(tid,))
                       for tid in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
                assert not thread.is_alive()
            assert errors == []
            assert server.requests_handled >= 8 * 25
            # Every caller shared the one connection.
            assert len(client._tcp._conns) == 1
        finally:
            sys.setswitchinterval(interval)
            client.shutdown()
            server.shutdown()

    def test_two_way_reply_follows_every_earlier_oneway(self):
        server, ref = make_server()
        client = make_client()
        try:
            stub = client.stub(ref, ECHO_INTERFACE)
            for i in range(200):
                stub.note(f"n{i}")
            assert stub.echo("barrier") == "barrier"
            servant = server._servants["test/echo"][0]
            assert servant.notes == [f"n{i}" for i in range(200)]
            # Nagle is off, so small frames never wait on delayed ACKs.
            sock = next(iter(client._tcp._conns.values())).sock
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            client.shutdown()
            server.shutdown()


class TestConnectionBookkeeping:
    def test_server_prunes_closed_connections(self):
        server, ref = make_server()
        client = make_client()
        try:
            stub = client.stub(ref, ECHO_INTERFACE)
            assert stub.echo("x") == "x"
            assert wait_for(lambda: len(server._tcp._server_conns) == 1)
        finally:
            client.shutdown()
        try:
            # Closing the client must drain the server's connection list,
            # not leave a dead socket behind for the transport's lifetime.
            assert wait_for(lambda: len(server._tcp._server_conns) == 0)
        finally:
            server.shutdown()

    def test_dropping_a_connection_drops_its_lock(self):
        server, ref = make_server()
        client = make_client()
        try:
            stub = client.stub(ref, ECHO_INTERFACE)
            assert stub.echo("x") == "x"
            transport = client._tcp
            address = server._tcp.address
            assert address in transport._conn_locks
            transport._drop_connection(address)
            assert address not in transport._conn_locks
            assert address not in transport._conns
            # And the client recovers by reconnecting transparently.
            assert stub.echo("y") == "y"
        finally:
            client.shutdown()
            server.shutdown()


class TestFramingInterop:
    def test_legacy_client_against_pipelined_server(self):
        """A peer still speaking the retired legacy framing gets its
        frames rejected, and the connection keeps serving."""
        server, _ = make_server()
        try:
            with raw_connect(server) as sock:
                sock.sendall(legacy_request_frame("test/echo", "echo", "old"))
                sock.sendall(request_frame("test/echo", "echo", "new"))
                assert recv_reply(sock) == "new"
            assert server._tcp.frames_rejected == 1
            assert server.requests_handled == 1
        finally:
            server.shutdown()


class TestShutdown:
    def test_shutdown_joins_threads_and_frees_the_orbs(self):
        server, ref = make_server()
        client = make_client()
        assert client.stub(ref, ECHO_INTERFACE).echo("x") == "x"
        threads = [server._tcp._accept_thread, client._tcp._accept_thread]
        threads += list(server._tcp._server_conns.values())
        threads += [c.reader for c in client._tcp._conns.values()]
        client.shutdown()
        server.shutdown()
        deadline = time.monotonic() + 1.0
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
            assert not thread.is_alive(), thread.name
        refs = [weakref.ref(server), weakref.ref(client)]
        del server, client, ref, threads
        gc.collect()
        assert [r() for r in refs] == [None, None]
