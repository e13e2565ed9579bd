"""ORB transports.

Two transports share one wire format (length-framed CDR payloads):

* **in-process** — delivers requests synchronously between ORBs in the
  same Python process via a registry ("domain").  This is what the grid
  simulator uses: calls are instantaneous in simulated time, but every
  message and byte is counted, so protocol-cost experiments stay honest.
* **TCP** — real sockets, used by integration tests, the TCP
  microbenchmarks and the wire benchmark.

Every TCP frame is a 4-byte big-endian length followed by a body whose
first byte is the frame type::

    0x10 oneway   [0x10][payload]               no reply
    0x11 request  [0x11][corr-id:4][payload]    reply expected
    0x12 reply    [0x12][corr-id:4][payload]

A connection speaks these frames from its first byte, with Nagle's
algorithm off.  The correlation id (big-endian, per connection) lets
concurrent callers share one connection: each caller sends under a
short lock and waits on its own slot, and a per-connection reader
thread hands each reply to the caller whose id it carries.  The server
dispatches a connection's frames in arrival order, so a two-way reply
also confirms that every oneway sent before it on that connection was
dispatched.
"""

import itertools
import socket
import struct
import threading
from typing import Optional

from repro.orb.exceptions import CommunicationError

_FRAME_HEADER = struct.Struct(">I")
MAX_FRAME_BYTES = 64 * 1024 * 1024

_FT_ONEWAY = 0x10
_FT_REQUEST = 0x11
_FT_REPLY = 0x12

_ONEWAY_TAG = bytes((_FT_ONEWAY,))
_REQUEST_TAG = bytes((_FT_REQUEST,))
_REPLY_TAG = bytes((_FT_REPLY,))

#: How long a caller waits for its reply.
_REPLY_TIMEOUT_S = 30.0

#: How long :meth:`TcpTransport.close` waits for each of its threads.
_JOIN_TIMEOUT_S = 2.0


class TransportStats:
    """Message and byte counters, kept per transport."""

    def __init__(self):
        self.requests_sent = 0
        self.replies_received = 0
        self.requests_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    def snapshot(self) -> dict:
        return {
            "requests_sent": self.requests_sent,
            "replies_received": self.replies_received,
            "requests_received": self.requests_received,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
        }


class InProcDomain:
    """A namespace of co-located ORBs that can call each other directly."""

    def __init__(self):
        self._orbs: dict[str, object] = {}

    def register(self, name: str, orb) -> None:
        if name in self._orbs:
            raise ValueError(f"an ORB named {name!r} is already registered")
        self._orbs[name] = orb

    def unregister(self, name: str) -> None:
        self._orbs.pop(name, None)

    def lookup(self, name: str):
        return self._orbs.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._orbs


DEFAULT_DOMAIN = InProcDomain()


class InProcTransport:
    """Synchronous delivery between ORBs registered in the same domain."""

    kind = "inproc"

    def __init__(self, orb_name: str, domain: InProcDomain):
        self.orb_name = orb_name
        self.domain = domain
        self.stats = TransportStats()

    @property
    def address(self) -> str:
        return self.orb_name

    def peer(self, address: str):
        """The co-located ORB behind ``address``, or None.

        Routing hook for the ORB's zero-marshal fast path: the lookup
        goes through the transport (like :meth:`invoke` routing) but the
        dispatch bypasses framing and CDR entirely, so nothing is
        counted here — fast-path calls put no bytes on the wire.
        """
        return self.domain.lookup(address)

    def invoke(self, address: str, payload: bytes, oneway: bool) -> Optional[bytes]:
        target = self.domain.lookup(address)
        if target is None:
            raise CommunicationError(f"no in-process ORB named {address!r}")
        self.stats.requests_sent += 1
        self.stats.bytes_sent += len(payload)
        server_stats = target.inproc_stats()
        server_stats.requests_received += 1
        server_stats.bytes_received += len(payload)
        reply = target.handle_request_bytes(payload)
        if oneway:
            return None
        server_stats.bytes_sent += len(reply)
        self.stats.replies_received += 1
        self.stats.bytes_received += len(reply)
        return reply

    def close(self) -> None:
        self.domain.unregister(self.orb_name)


def _recv_exact(sock: socket.socket, size: int) -> bytes:
    chunks = []
    remaining = size
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise CommunicationError("peer closed the connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _send_frame(sock: socket.socket, payload: bytes) -> None:
    if len(payload) > MAX_FRAME_BYTES:
        # Mirror of the receive-side check: fail fast client-side with a
        # clear error instead of poisoning the peer connection.
        raise CommunicationError(
            f"frame of {len(payload)} bytes exceeds limit"
        )
    sock.sendall(_FRAME_HEADER.pack(len(payload)) + payload)


def _recv_frame(sock: socket.socket) -> bytes:
    (length,) = _FRAME_HEADER.unpack(_recv_exact(sock, _FRAME_HEADER.size))
    if length > MAX_FRAME_BYTES:
        raise CommunicationError(f"frame of {length} bytes exceeds limit")
    return _recv_exact(sock, length)


def _set_nodelay(sock: socket.socket) -> None:
    """Disable Nagle: many small frames go out without waiting for a
    reply, exactly the pattern Nagle's algorithm stalls behind delayed
    ACKs (a two-way call sent after oneways would wait ~40 ms)."""
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        pass   # non-TCP or platform without the option; purely advisory


def _shut(sock: socket.socket) -> None:
    """Shut a socket down, then close it.

    A bare ``close`` does not wake a thread blocked in ``recv`` or
    ``accept`` on the same socket (Linux); ``shutdown`` does.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class _Conn:
    """Client side of one connection.

    ``pending`` maps correlation id -> ``[event, reply]``; the reader
    thread fills the reply slot and sets the event.  A reply slot left
    ``None`` after the event fires means the connection died.
    """

    __slots__ = ("sock", "send_lock", "pending", "pending_lock", "closed",
                 "reader", "_ids")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.send_lock = threading.Lock()
        self.pending: dict[int, list] = {}
        self.pending_lock = threading.Lock()
        self.closed = False
        self.reader: Optional[threading.Thread] = None
        self._ids = itertools.count(1)

    def next_corr(self) -> int:
        return next(self._ids) & 0xFFFFFFFF


def _read_replies(conn: _Conn) -> None:
    """Reader thread: hand each reply frame to its waiting caller.

    A module function rather than a method, so a running reader never
    keeps its transport (and the ORB behind it) alive.
    """
    try:
        while True:
            frame = _recv_frame(conn.sock)
            if len(frame) >= 5 and frame[0] == _FT_REPLY:
                corr = int.from_bytes(frame[1:5], "big")
                with conn.pending_lock:
                    waiter = conn.pending.pop(corr, None)
                if waiter is not None:
                    waiter[1] = frame[5:]
                    waiter[0].set()
    except (OSError, CommunicationError):
        pass
    finally:
        conn.closed = True
        with conn.pending_lock:
            waiters = list(conn.pending.values())
            conn.pending.clear()
        for waiter in waiters:
            waiter[0].set()   # reply slot stays None -> error
        try:
            conn.sock.close()
        except OSError:
            pass


class TcpTransport:
    """A real-socket transport: accept thread, one serving thread per
    accepted connection, and one cached connection per peer address."""

    kind = "tcp"

    def __init__(self, orb, host: str = "127.0.0.1", port: int = 0):
        self._orb = orb
        self.stats = TransportStats()
        #: Malformed frames dropped by the serving loops (diagnostic;
        #: not part of TransportStats, whose key set is fixed).
        self.frames_rejected = 0
        self._server = socket.create_server((host, port))
        self.host, self.port = self._server.getsockname()[:2]
        self._closing = False
        self._conns: dict[str, _Conn] = {}
        self._client_lock = threading.Lock()
        # One lock per destination, held only while connecting, so two
        # first callers do not open two connections to one peer.
        self._conn_locks: dict[str, threading.Lock] = {}
        # Accepted socket -> its serving thread.
        self._server_conns: dict[socket.socket, threading.Thread] = {}
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"orb-tcp-{self.port}", daemon=True
        )
        self._accept_thread.start()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- server side ---------------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._server.accept()
            except OSError:
                return   # listening socket shut down
            if self._closing:
                _shut(conn)
                return
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            self._server_conns[conn] = thread
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        """Dispatch one connection's frames in arrival order."""
        _set_nodelay(conn)
        handle = self._orb.handle_request_bytes
        stats = self.stats
        try:
            with conn:
                while not self._closing:
                    try:
                        frame = _recv_frame(conn)
                    except (CommunicationError, OSError):
                        return
                    ftype = frame[0] if frame else None
                    if ftype == _FT_ONEWAY:
                        payload = memoryview(frame)[1:]
                        stats.requests_received += 1
                        stats.bytes_received += len(payload)
                        handle(payload)
                    elif ftype == _FT_REQUEST and len(frame) >= 5:
                        corr = frame[1:5]
                        payload = memoryview(frame)[5:]
                        stats.requests_received += 1
                        stats.bytes_received += len(payload)
                        reply = handle(payload)
                        try:
                            _send_frame(conn, _REPLY_TAG + corr + reply)
                        except (OSError, CommunicationError):
                            return
                        stats.bytes_sent += len(reply)
                    else:
                        # Empty, truncated or unknown frame: drop it and
                        # keep serving.
                        self.frames_rejected += 1
        finally:
            # Prune: a transport otherwise accumulates one dead socket
            # per connection ever accepted, for its whole lifetime.
            self._server_conns.pop(conn, None)

    # -- client side ---------------------------------------------------------

    def _conn_to(self, address: str) -> _Conn:
        """The live connection to ``address``, connecting on first use."""
        conn = self._conns.get(address)
        if conn is not None and not conn.closed:
            return conn
        with self._client_lock:
            lock = self._conn_locks.setdefault(address, threading.Lock())
        with lock:
            conn = self._conns.get(address)
            if conn is not None and not conn.closed:
                return conn
            if self._closing:
                raise CommunicationError(f"transport to {address} is closed")
            host, _, port = address.rpartition(":")
            try:
                sock = socket.create_connection((host, int(port)), timeout=10)
            except OSError as exc:
                raise CommunicationError(
                    f"cannot connect to {address}: {exc}"
                ) from exc
            # The reader blocks indefinitely; reply timeouts are enforced
            # per waiter.
            sock.settimeout(None)
            _set_nodelay(sock)
            conn = _Conn(sock)
            conn.reader = threading.Thread(
                target=_read_replies, args=(conn,),
                name=f"orb-tcp-reader-{address}", daemon=True,
            )
            conn.reader.start()
            self._conns[address] = conn
            return conn

    def _drop_connection(self, address: str, conn: Optional[_Conn] = None) -> None:
        """Close the connection to ``address`` (only ``conn``, if given)."""
        with self._client_lock:
            current = self._conns.get(address)
            if conn is None:
                conn = current
            if current is conn:
                self._conns.pop(address, None)
                # Drop the per-address lock with the connection:
                # otherwise the lock table grows by one entry per
                # address ever contacted.
                self._conn_locks.pop(address, None)
        if conn is not None:
            conn.closed = True
            _shut(conn.sock)   # wakes the reader, which fails waiters

    def _send(self, conn: _Conn, address: str, frame: bytes) -> None:
        try:
            with conn.send_lock:
                _send_frame(conn.sock, frame)
        except (OSError, CommunicationError) as exc:
            self._drop_connection(address, conn)
            raise CommunicationError(
                f"invoke on {address} failed: {exc}"
            ) from exc

    def invoke(self, address: str, payload: bytes, oneway: bool) -> Optional[bytes]:
        conn = self._conn_to(address)
        if oneway:
            self._send(conn, address, _ONEWAY_TAG + payload)
            self.stats.requests_sent += 1
            self.stats.bytes_sent += len(payload)
            return None
        corr = conn.next_corr()
        waiter = [threading.Event(), None]
        with conn.pending_lock:
            conn.pending[corr] = waiter
        try:
            self._send(conn, address,
                       _REQUEST_TAG + corr.to_bytes(4, "big") + payload)
        except CommunicationError:
            with conn.pending_lock:
                conn.pending.pop(corr, None)
            raise
        self.stats.requests_sent += 1
        self.stats.bytes_sent += len(payload)
        if not waiter[0].wait(_REPLY_TIMEOUT_S):
            with conn.pending_lock:
                conn.pending.pop(corr, None)
            self._drop_connection(address, conn)
            raise CommunicationError(f"invoke on {address} timed out")
        reply = waiter[1]
        if reply is None:
            raise CommunicationError(
                f"invoke on {address} failed: connection lost"
            )
        self.stats.replies_received += 1
        self.stats.bytes_received += len(reply)
        return reply

    def close(self) -> None:
        """Stop serving and drop every connection; joins every thread
        this transport started (except the calling one)."""
        self._closing = True
        _shut(self._server)
        threads = [self._accept_thread]
        threads[0].join(_JOIN_TIMEOUT_S)   # no new connections after this
        for conn, thread in list(self._server_conns.items()):
            _shut(conn)
            threads.append(thread)
        for address, conn in list(self._conns.items()):
            self._drop_connection(address, conn)
            threads.append(conn.reader)
        current = threading.current_thread()
        for thread in threads:
            if thread is not None and thread is not current:
                thread.join(_JOIN_TIMEOUT_S)
