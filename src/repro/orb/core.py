"""The ORB: servant registration, stubs, and request dispatch.

Request wire format (after the transport's framing)::

    Struct RequestHeader { key: string, operation: string }
    <arguments, encoded per the operation signature>

Reply wire format::

    octet status   # 0 = ok, 1 = exception
    <result per signature>            (status 0)
    string exc_type; string message   (status 1)
"""

import itertools
import traceback
from typing import Optional, Union

from repro.security.auth import AuthenticationError, is_authenticated

from repro.orb.cdr import CdrDecoder, CdrEncoder, String, Struct
from repro.orb.exceptions import (
    BadOperation,
    CommunicationError,
    ObjectNotFound,
    OrbError,
    RemoteInvocationError,
)
from repro.orb.idl import InterfaceDef, Operation
from repro.orb.ior import INPROC, TCP, ObjectRef
from repro.orb.transport import (
    DEFAULT_DOMAIN,
    InProcDomain,
    InProcTransport,
    TcpTransport,
)

_REQUEST_HEADER = Struct(
    "RequestHeader", [("key", String), ("operation", String)]
)

_STATUS_OK = 0
_STATUS_EXCEPTION = 1

#: Reserved object key announcing a trace-context header extension.  A
#: traced request reads ``[_TRACE_KEY, trace_id, parent_span_id]`` before
#: the normal ``[key, operation]`` header; servant keys never start with
#: NUL, so untraced requests are byte-identical to the pre-tracing wire
#: format and any ORB can parse (and skip) the extension.
_TRACE_KEY = "\x00trace-ctx"


class Stub:
    """Client-side proxy: marshals calls described by an InterfaceDef."""

    def __init__(self, orb: "Orb", interface: InterfaceDef, ref: ObjectRef):
        self._orb = orb
        self._interface = interface
        self._ref = ref

    @property
    def ref(self) -> ObjectRef:
        return self._ref

    def __getattr__(self, name: str):
        operation = self._interface.operation(name)   # raises BadOperation
        # The request header is constant per (ref, operation) and always
        # sits at offset 0, so its encoding can be computed once here and
        # spliced into every request.
        enc = CdrEncoder()
        _REQUEST_HEADER.encode(
            enc, {"key": self._ref.key, "operation": operation.name}
        )
        header = enc.getvalue()
        orb = self._orb
        ref = self._ref

        def call(*args):
            return orb.invoke(ref, operation, args, _header=header)

        call.__name__ = name
        # Cache on the instance so later lookups skip __getattr__.
        object.__setattr__(self, name, call)
        return call

    def __repr__(self):
        return f"Stub({self._interface.name}, key={self._ref.key!r})"


class Orb:
    """One Object Request Broker endpoint.

    Every grid component (LRM, GRM, Trader, ...) owns an ORB; servants are
    activated on it and receive an :class:`ObjectRef` that peers can
    resolve into a :class:`Stub`.
    """

    _names = itertools.count()

    def __init__(
        self,
        name: Optional[str] = None,
        domain: Optional[InProcDomain] = None,
        tcp: bool = False,
        tcp_host: str = "127.0.0.1",
        tcp_port: int = 0,
        credentials=None,
        keyring=None,
        require_auth: bool = False,
        fast_local: bool = False,
    ):
        if require_auth and keyring is None:
            raise ValueError("require_auth needs a keyring to verify against")
        self.name = name if name is not None else f"orb{next(self._names)}"
        self.domain = domain if domain is not None else DEFAULT_DOMAIN
        self._servants: dict[str, tuple] = {}
        # (key, operation) -> (bound method, Operation); rebuilt lazily,
        # dropped whenever the servant table changes.
        self._dispatch_cache: dict[tuple, tuple] = {}
        # endpoints tuple -> (transport, address).  A stale entry after a
        # peer shutdown still fails with CommunicationError, just from the
        # transport instead of the routing step.
        self._route_cache: dict[tuple, tuple] = {}
        self._interfaces: dict[str, InterfaceDef] = {}
        self._key_counter = itertools.count()
        self.domain.register(self.name, self)
        self._inproc = InProcTransport(self.name, self.domain)
        self._tcp = TcpTransport(self, tcp_host, tcp_port) if tcp else None
        self.requests_handled = 0
        self._client_interceptors: list = []
        self._server_interceptors: list = []
        #: Optional span tracer (see :mod:`repro.obs.trace`).  None by
        #: default: the invoke/dispatch hot paths then pay one attribute
        #: check and allocate nothing.
        self._tracer = None
        self.credentials = credentials
        self.keyring = keyring
        self.require_auth = require_auth
        #: Principal of the request currently being dispatched (if any).
        self.current_principal: Optional[str] = None
        #: Opt-in zero-marshal dispatch between co-located ORBs that have
        #: *both* enabled it.  Off (the default) leaves every path —
        #: including the wire bytes — exactly as before.
        self.fast_local = fast_local
        #: Requests this ORB dispatched without touching CDR (diagnostic;
        #: deliberately not part of :meth:`stats`, whose key set is fixed).
        self.fast_local_calls = 0

    # -- servant side ---------------------------------------------------------

    def activate(
        self,
        servant,
        interface: InterfaceDef,
        key: Optional[str] = None,
    ) -> ObjectRef:
        """Register a servant and return its reference."""
        interface.validate_servant(servant)
        if key is None:
            key = f"{interface.name}/{next(self._key_counter)}"
        if key in self._servants:
            raise ValueError(f"object key {key!r} already active on {self.name}")
        self._servants[key] = (servant, interface)
        endpoints = [(INPROC, self._inproc.address)]
        if self._tcp is not None:
            endpoints.append((TCP, self._tcp.address))
        return ObjectRef(interface.name, key, tuple(endpoints))

    def deactivate(self, key: str) -> None:
        """Remove a servant; subsequent calls get ObjectNotFound."""
        if key not in self._servants:
            raise ObjectNotFound(f"no servant with key {key!r} on {self.name}")
        del self._servants[key]
        self._dispatch_cache.clear()

    def register_interface(self, interface: InterfaceDef) -> None:
        """Make an interface resolvable by name (for stub construction)."""
        self._interfaces[interface.name] = interface

    # -- client side ------------------------------------------------------------

    def stub(
        self,
        ref: Union[ObjectRef, str],
        interface: Optional[InterfaceDef] = None,
    ) -> Stub:
        """Build a typed proxy for a reference (or stringified IOR)."""
        if isinstance(ref, str):
            ref = ObjectRef.from_string(ref)
        if interface is None:
            interface = self._interfaces.get(ref.interface)
            if interface is None:
                raise BadOperation(
                    f"interface {ref.interface!r} is not registered with "
                    f"{self.name}; pass it explicitly"
                )
        if interface.name != ref.interface:
            raise BadOperation(
                f"reference is for {ref.interface!r}, not {interface.name!r}"
            )
        return Stub(self, interface, ref)

    def add_client_interceptor(self, interceptor) -> None:
        """Observe outgoing requests: called with (ref, operation, args).

        Interceptors are the CORBA-style hook for tracing and accounting;
        they must not mutate the arguments.  Exceptions propagate to the
        caller (useful for policy enforcement in tests).
        """
        self._client_interceptors.append(interceptor)

    def add_server_interceptor(self, interceptor) -> None:
        """Observe dispatched requests: called with (key, operation, args)."""
        self._server_interceptors.append(interceptor)

    def set_tracer(self, tracer) -> None:
        """Attach (or detach, with None) a span tracer to this ORB.

        With an active tracer, every invocation opens a client span and
        propagates its trace context in the request-header extension;
        every dispatched request carrying that extension opens a server
        span parented to the remote caller's span.
        """
        self._tracer = tracer

    def invoke(
        self,
        ref: ObjectRef,
        operation: Operation,
        args: tuple,
        _header: Optional[bytes] = None,
    ):
        """Marshal and send one request; unmarshal the reply.

        ``_header`` is the precomputed request-header encoding a
        :class:`Stub` caches per operation; without it the header is
        encoded here.
        """
        tracer = self._tracer
        if tracer is not None and tracer._active:
            return self._invoke_traced(ref, operation, args)
        if len(args) != len(operation.params):
            raise TypeError(
                f"{operation.name}() takes {len(operation.params)} "
                f"arguments ({len(args)} given)"
            )
        if self.fast_local:
            target = self._fast_target(ref)
            if target is not None:
                for interceptor in self._client_interceptors:
                    interceptor(ref, operation, args)
                return target.handle_request_direct(ref.key, operation, args)
        for interceptor in self._client_interceptors:
            interceptor(ref, operation, args)
        enc = CdrEncoder()
        if _header is not None:
            enc._buf.extend(_header)
        else:
            _REQUEST_HEADER.encode(
                enc, {"key": ref.key, "operation": operation.name}
            )
        for param, arg in zip(operation.params, args):
            param.idl_type.encode(enc, arg)
        return self._transmit(ref, operation, enc.getvalue())

    def _invoke_traced(self, ref: ObjectRef, operation: Operation, args: tuple):
        """Traced invoke: client span + trace-context header extension.

        The stub's cached header cannot be spliced here — its alignment
        padding assumes offset 0, and the extension shifts it — so the
        header strings are re-encoded after the context (the server
        reads plain strings either way).
        """
        if len(args) != len(operation.params):
            raise TypeError(
                f"{operation.name}() takes {len(operation.params)} "
                f"arguments ({len(args)} given)"
            )
        name = f"{ref.interface}.{operation.name}"
        with self._tracer.span(name, component=self.name,
                               kind="client") as span:
            for interceptor in self._client_interceptors:
                interceptor(ref, operation, args)
            enc = CdrEncoder()
            enc.write_string(_TRACE_KEY)
            enc.write_string(span.trace_id)
            enc.write_string(str(span.span_id))
            enc.write_string(ref.key)
            enc.write_string(operation.name)
            for param, arg in zip(operation.params, args):
                param.idl_type.encode(enc, arg)
            return self._transmit(ref, operation, enc.getvalue())

    def _transmit(self, ref: ObjectRef, operation: Operation, payload: bytes):
        """Wrap, route, send one encoded request; unmarshal the reply."""
        if self.credentials is not None:
            payload = self.credentials.wrap(payload)
        route = self._route_cache.get(ref.endpoints)
        if route is None:
            route = self._route(ref)
            self._route_cache[ref.endpoints] = route
        transport, address = route
        reply = transport.invoke(address, payload, operation.oneway)
        if operation.oneway:
            return None
        dec = CdrDecoder(reply)
        status = dec.read_octet()
        if status == _STATUS_OK:
            return operation.returns.decode(dec)
        exc_type = dec.read_string()
        message = dec.read_string()
        raise RemoteInvocationError(exc_type, message)

    def _fast_target(self, ref: ObjectRef):
        """The peer ORB to dispatch to directly, or None to marshal.

        Eligibility is re-checked per call (one dict lookup) rather than
        cached: a shut-down peer drops out of the domain, so the call
        falls through to the marshalled path and fails with the same
        CommunicationError it always did.  Security short-circuits are
        conservative — any credentials on this side or auth requirement
        on the target keep the call on the enveloped wire path.
        """
        if self.credentials is not None:
            return None
        inproc = ref.endpoint_of_kind(INPROC)
        if inproc is None:
            return None
        target = self._inproc.peer(inproc[1])
        if target is None or not target.fast_local or target.require_auth:
            return None
        return target

    def _route(self, ref: ObjectRef):
        """Pick a transport shared with the servant (in-proc preferred)."""
        inproc = ref.endpoint_of_kind(INPROC)
        if inproc is not None and inproc[1] in self.domain:
            return self._inproc, inproc[1]
        tcp = ref.endpoint_of_kind(TCP)
        if tcp is not None and self._tcp is not None:
            return self._tcp, tcp[1]
        if tcp is not None:
            raise CommunicationError(
                f"{self.name} has no TCP transport to reach {tcp[1]}"
            )
        raise CommunicationError(
            f"no usable endpoint for {ref.interface}:{ref.key}"
        )

    # -- dispatch (called by transports) ----------------------------------------

    def handle_request_bytes(self, payload: bytes) -> bytes:
        """Unmarshal, dispatch to the servant, marshal the reply.

        When a keyring is configured, authenticated envelopes are
        verified (and stripped) first; with ``require_auth`` every
        unauthenticated request is rejected before dispatch.
        """
        self.requests_handled += 1
        enc = CdrEncoder()
        try:
            self.current_principal = None
            if self.keyring is not None:
                # Auth envelopes are inspected as bytes; TCP payloads
                # arrive as memoryviews, so materialise.
                if not isinstance(payload, (bytes, bytearray)):
                    payload = bytes(payload)
                if is_authenticated(payload):
                    principal, payload = self.keyring.unwrap(payload)
                    self.current_principal = principal
                elif self.require_auth:
                    raise AuthenticationError(
                        "this ORB only accepts authenticated requests"
                    )
            elif self.require_auth:
                raise AuthenticationError(
                    "this ORB only accepts authenticated requests"
                )
            # Zero-copy decode: octet arguments arrive as memoryview
            # slices of the request buffer instead of copies.
            dec = CdrDecoder(payload, zero_copy=True)
            # The header is Struct{key: string, operation: string}; read the
            # two strings directly rather than through the Struct plan.
            key = dec.read_string()
            remote_parent = None
            if key == _TRACE_KEY:
                # Trace-context extension: consume it whether or not this
                # ORB traces, so a traced client can talk to any server.
                trace_id = dec.read_string()
                remote_parent = (trace_id, int(dec.read_string()))
                key = dec.read_string()
            op_name = dec.read_string()
            cached = self._dispatch_cache.get((key, op_name))
            if cached is None:
                entry = self._servants.get(key)
                if entry is None:
                    raise ObjectNotFound(f"no servant with key {key!r}")
                servant, interface = entry
                operation = interface.operation(op_name)
                cached = (getattr(servant, operation.name), operation)
                self._dispatch_cache[(key, op_name)] = cached
            method, operation = cached
            args = [p.idl_type.decode(dec) for p in operation.params]
            tracer = self._tracer
            if (remote_parent is not None and tracer is not None
                    and tracer._active):
                with tracer.span(f"{key}.{op_name}", parent=remote_parent,
                                 component=self.name, kind="server"):
                    for interceptor in self._server_interceptors:
                        interceptor(key, operation, args)
                    result = method(*args)
            else:
                for interceptor in self._server_interceptors:
                    interceptor(key, operation, args)
                result = method(*args)
            enc.write_octet(_STATUS_OK)
            operation.returns.encode(enc, result)
        except Exception as exc:   # marshalled back to the caller
            enc = CdrEncoder()
            enc.write_octet(_STATUS_EXCEPTION)
            enc.write_string(type(exc).__name__)
            enc.write_string(str(exc))
        return enc.getvalue()

    def handle_request_direct(self, key: str, operation: Operation, args: tuple):
        """Dispatch one co-located request without touching CDR.

        Observable behaviour mirrors :meth:`handle_request_bytes` +
        :meth:`_transmit` exactly: server interceptors see the argument
        list, servant exceptions surface as
        :class:`RemoteInvocationError` carrying the exception's type name
        and message, and oneway operations swallow both result and
        exceptions.  What is *not* replayed is the marshalling itself, so
        arguments and results cross by reference — callers must follow
        the same ownership discipline the wire's fresh-decode gave for
        free (the grid components already do: status dicts are handed
        over, never retained).
        """
        self.requests_handled += 1
        self.fast_local_calls += 1
        try:
            self.current_principal = None
            cached = self._dispatch_cache.get((key, operation.name))
            if cached is None:
                entry = self._servants.get(key)
                if entry is None:
                    raise ObjectNotFound(f"no servant with key {key!r}")
                servant, interface = entry
                bound_op = interface.operation(operation.name)
                cached = (getattr(servant, bound_op.name), bound_op)
                self._dispatch_cache[(key, operation.name)] = cached
            method, bound_op = cached
            arg_list = list(args)
            for interceptor in self._server_interceptors:
                interceptor(key, bound_op, arg_list)
            result = method(*arg_list)
        except Exception as exc:
            # The marshalled path encodes any servant-side exception and
            # the client re-raises it as RemoteInvocationError — or drops
            # it entirely for oneway calls.  Replicate both.
            if operation.oneway:
                return None
            raise RemoteInvocationError(type(exc).__name__, str(exc)) from exc
        return None if operation.oneway else result

    # -- lifecycle / metrics ------------------------------------------------------

    def inproc_stats(self):
        """The in-process transport's counters (server-side accounting)."""
        return self._inproc.stats

    @property
    def tcp_address(self) -> Optional[str]:
        return self._tcp.address if self._tcp is not None else None

    def stats(self) -> dict:
        """Aggregated transport statistics for this ORB."""
        totals = self._inproc.stats.snapshot()
        if self._tcp is not None:
            for key, value in self._tcp.stats.snapshot().items():
                totals[key] += value
        totals["requests_handled"] = self.requests_handled
        return totals

    def to_metrics(self, registry, prefix: str = None) -> None:
        """Publish :meth:`stats` as a registry view (evaluated at snapshot)."""
        registry.view(prefix if prefix else f"orb.{self.name}", self.stats)

    def shutdown(self) -> None:
        """Close transports and unregister from the domain."""
        self._inproc.close()
        if self._tcp is not None:
            self._tcp.close()
        self._servants.clear()

    def __repr__(self):
        return f"Orb({self.name!r}, servants={len(self._servants)})"
