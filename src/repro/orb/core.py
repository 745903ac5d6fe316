"""The ORB: request issue, batching, dispatch, and reply correlation.

One :class:`Orb` runs per processor, exactly as a commercial ORB would.
It owns an object adapter, a pluggable transport, a monotonically
increasing request-id counter, and the one-way batching machinery whose
performance side-effects the paper observes in Figure 7 ("the ORB
batches multiple one-way invocations before transmission").

All CPU work — marshalling, unmarshalling, dispatch, and the servant's
own execution — is charged to the hosting processor through
:class:`OrbCostModel`, so offered load beyond the CPU's capacity queues
and the measured throughput saturates, as on the paper's testbed.
"""

from repro.orb.giop import (
    GiopError,
    ReplyMessage,
    RequestMessage,
    REPLY_NO_EXCEPTION,
    REPLY_SYSTEM_EXCEPTION,
    REPLY_USER_EXCEPTION,
    decode_message_shared,
)
from repro.orb.idl import IdlError, UserException
from repro.orb.ior import ObjectReference
from repro.orb.poa import ObjectAdapter


#: pseudo reply status used for expired invocations (outside GIOP's range)
_TIMEOUT_STATUS = 0xFFFF


class OrbCostModel:
    """Simulated CPU costs of ORB operations (167 MHz-era constants)."""

    #: building or parsing one GIOP frame
    marshal_base = 40e-6
    marshal_per_byte = 25e-9
    #: adapter lookup + skeleton dispatch per incoming request
    dispatch_base = 120e-6

    def marshal_cost(self, num_bytes):
        return self.marshal_base + self.marshal_per_byte * num_bytes

    def dispatch_cost(self):
        return self.dispatch_base


class BatchingPolicy:
    """How the ORB coalesces one-way requests before transmission."""

    def __init__(self, max_messages=6, window=100e-6):
        #: flush as soon as this many frames are queued
        self.max_messages = max_messages
        #: flush this long after the first frame entered the batch
        self.window = window

    @classmethod
    def disabled(cls):
        return cls(max_messages=1, window=0.0)


class _Batch:
    __slots__ = ("frames", "timer")

    def __init__(self):
        self.frames = []
        self.timer = None


class Orb:
    """A per-processor Object Request Broker."""

    def __init__(self, processor, scheduler, cost_model=None, batching=None):
        self.processor = processor
        self.scheduler = scheduler
        self.costs = cost_model or OrbCostModel()
        self.batching = batching or BatchingPolicy()
        self.adapter = ObjectAdapter()
        self._transport = None
        self._next_request_id = 0
        self._pending_replies = {}
        self._batches = {}
        self._current_source_key = None
        #: counters for reports
        self.stats = {"requests_sent": 0, "requests_served": 0, "replies_matched": 0}

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def set_transport(self, transport):
        self._transport = transport
        transport.attach(self)

    def register_servant(self, object_key, servant, interface):
        """Activate a servant and return its object reference."""
        key = self.adapter.activate(object_key, servant, interface)
        return ObjectReference(interface.name, key, host=self.processor.proc_id)

    def stub(self, interface, reference, source_key=None):
        """Create a client stub for ``reference``.

        ``source_key`` names the local client object the invocations
        should be attributed to; when omitted, invocations made while
        dispatching a request inherit the dispatched object's identity
        (so servants calling out through stubs are attributed
        correctly).
        """
        bound = _BoundReference(reference, source_key)
        return interface.stub_for(_SourceBoundOrb(self, bound), reference)

    # ------------------------------------------------------------------
    # outbound path
    # ------------------------------------------------------------------

    def send_request(
        self, reference, operation, body, reply_handler, source_key=None, timeout=None
    ):
        """Marshal one invocation and hand it to the transport.

        ``timeout`` (seconds) arms a deadline for two-way invocations:
        if no reply arrives in time, the pending handler fires with an
        :class:`~repro.orb.giop.InvocationTimeout` system-exception
        status instead.  A reply arriving after the deadline is
        discarded as unsolicited.
        """
        if self._transport is None:
            raise GiopError("ORB has no transport configured")
        request_id = self._next_request_id
        self._next_request_id += 1
        if reply_handler is not None:
            self._pending_replies[request_id] = reply_handler
            if timeout is not None:
                self.scheduler.after(
                    timeout,
                    self._expire_request,
                    request_id,
                    operation.name,
                    label="orb.invocation-timeout",
                )
        request = RequestMessage(
            request_id,
            reference.object_key,
            operation.name,
            body,
            response_expected=reply_handler is not None,
        )
        frame = request.encode()
        self.processor.charge(self.costs.marshal_cost(len(frame)), "orb.marshal")
        self.stats["requests_sent"] += 1
        if source_key is None:
            source_key = self._current_source_key
        if operation.oneway and self.batching.max_messages > 1:
            self._enqueue_batch(reference, frame, source_key)
        else:
            self._flush_batch(reference, source_key)
            self._transport.send_frames(reference, [frame], source_key)

    def _batch_key(self, reference, source_key):
        return (reference.object_key, source_key)

    def _enqueue_batch(self, reference, frame, source_key):
        key = self._batch_key(reference, source_key)
        batch = self._batches.get(key)
        if batch is None:
            batch = self._batches[key] = _Batch()
        batch.frames.append(frame)
        if len(batch.frames) >= self.batching.max_messages:
            self._flush_batch(reference, source_key)
        elif batch.timer is None:
            batch.timer = self.scheduler.after(
                self.batching.window,
                self._flush_batch,
                reference,
                source_key,
                label="orb.batch-flush",
            )

    def _flush_batch(self, reference, source_key):
        key = self._batch_key(reference, source_key)
        batch = self._batches.pop(key, None)
        if batch is None or not batch.frames:
            return
        if batch.timer is not None:
            batch.timer.cancel()
        if self.processor.crashed:
            return
        self._transport.send_frames(reference, batch.frames, source_key)

    # ------------------------------------------------------------------
    # inbound path
    # ------------------------------------------------------------------

    def deliver_frame(self, frame, reply_sink):
        """Receive one GIOP frame from the transport.

        Unmarshalling and dispatch are charged to the CPU before the
        servant runs; ``reply_sink`` (if any) receives the encoded
        Reply frame for two-way requests.
        """
        self.processor.execute(
            self.costs.marshal_cost(len(frame)),
            self._dispatch_frame,
            frame,
            reply_sink,
            category="orb.unmarshal",
            label="orb.dispatch",
        )

    def _dispatch_frame(self, frame, reply_sink):
        try:
            # Replicated deployments dispatch the same voted frame at
            # every replica of the group: parse once, share.
            message = decode_message_shared(frame)
        except GiopError:
            return  # malformed frame: dropped
        if isinstance(message, RequestMessage):
            self._serve_request(message, reply_sink)
        elif isinstance(message, ReplyMessage):
            self._handle_reply(message)

    def _serve_request(self, request, reply_sink):
        skeleton = self.adapter.skeleton(request.object_key)
        if skeleton is None:
            return  # not hosted here (or replica was excluded)
        self.processor.charge(self.costs.dispatch_cost(), "orb.dispatch")
        previous_source = self._current_source_key
        self._current_source_key = request.object_key
        try:
            status, result_body = self._dispatch(skeleton, request)
        finally:
            self._current_source_key = previous_source
        self.stats["requests_served"] += 1
        if request.response_expected and reply_sink is not None:
            reply = ReplyMessage(request.request_id, status, result_body)
            reply_frame = reply.encode()
            self.processor.charge(self.costs.marshal_cost(len(reply_frame)), "orb.marshal")
            reply_sink(reply_frame)

    @staticmethod
    def _dispatch(skeleton, request):
        """``(reply status, body)`` of serving ``request``.  A body that
        does not unmarshal, or a result or user exception that does not
        marshal, is a system exception (CORBA's MARSHAL), as is an
        undeclared user exception."""
        try:
            try:
                return REPLY_NO_EXCEPTION, skeleton.dispatch(request.operation, request.body)
            except UserException as exc:
                operation = skeleton.interface.operations.get(request.operation)
                if operation is not None and operation.exception_for(exc.repository_id):
                    return REPLY_USER_EXCEPTION, exc.marshal()
        except IdlError:
            pass
        return REPLY_SYSTEM_EXCEPTION, b""

    def _expire_request(self, request_id, operation_name):
        handler = self._pending_replies.pop(request_id, None)
        if handler is None:
            return  # already answered
        self.stats["requests_timed_out"] = self.stats.get("requests_timed_out", 0) + 1
        handler(_TIMEOUT_STATUS, operation_name.encode("utf-8"))

    def _handle_reply(self, reply):
        handler = self._pending_replies.pop(reply.request_id, None)
        if handler is None:
            return  # duplicate or unsolicited reply
        self.stats["replies_matched"] += 1
        handler(reply.reply_status, reply.body)


class _BoundReference:
    __slots__ = ("reference", "source_key")

    def __init__(self, reference, source_key):
        self.reference = reference
        if isinstance(source_key, str):
            source_key = source_key.encode("utf-8")
        self.source_key = source_key


class _SourceBoundOrb:
    """Thin facade binding stub invocations to a source object key."""

    def __init__(self, orb, bound):
        self._orb = orb
        self._bound = bound

    def send_request(self, reference, operation, body, reply_handler, timeout=None):
        self._orb.send_request(
            reference,
            operation,
            body,
            reply_handler,
            source_key=self._bound.source_key,
            timeout=timeout,
        )
