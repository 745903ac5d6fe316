"""Unit tests for the ORB over the direct (unreplicated) transport."""

import pytest

from repro.orb.core import BatchingPolicy, Orb, OrbCostModel
from repro.orb.idl import IdlError, InterfaceDef, OperationDef, ParamDef, UserException
from repro.orb.transport import DirectTransport
from repro.sim.network import Network, NetworkParams
from repro.sim.process import Processor
from repro.sim.rng import RngStreams
from repro.sim.scheduler import Scheduler

ECHO_IDL = InterfaceDef(
    "Echo",
    [
        OperationDef("echo", [ParamDef("text", "string")], result="string"),
        OperationDef("notify", [ParamDef("data", "octets")], oneway=True),
    ],
)


class EchoServant:
    def __init__(self):
        self.notifications = []

    def echo(self, text):
        return text.upper()

    def notify(self, data):
        self.notifications.append(data)


def make_world(batching=None, num=2):
    sched = Scheduler()
    net = Network(
        sched,
        params=NetworkParams(jitter=0.0),
        rng=RngStreams(1).stream("net"),
    )
    orbs = []
    for i in range(num):
        proc = Processor(i, sched)
        net.add_processor(proc)
        orb = Orb(proc, sched, batching=batching or BatchingPolicy.disabled())
        orb.set_transport(DirectTransport(net))
        orbs.append(orb)
    return sched, net, orbs


def test_twoway_invocation_end_to_end():
    sched, _, (client_orb, server_orb) = make_world()
    servant = EchoServant()
    ref = server_orb.register_servant("echo/1", servant, ECHO_IDL)
    stub = client_orb.stub(ECHO_IDL, ref)
    replies = []
    stub.echo("hello", reply_to=replies.append)
    sched.run()
    assert replies == ["HELLO"]


def test_oneway_invocation_end_to_end():
    sched, _, (client_orb, server_orb) = make_world()
    servant = EchoServant()
    ref = server_orb.register_servant("echo/1", servant, ECHO_IDL)
    stub = client_orb.stub(ECHO_IDL, ref)
    stub.notify(b"a")
    stub.notify(b"b")
    sched.run()
    assert servant.notifications == [b"a", b"b"]


def test_batching_coalesces_oneways_on_the_wire():
    batching = BatchingPolicy(max_messages=4, window=1e-3)
    sched, net, (client_orb, server_orb) = make_world(batching=batching)
    servant = EchoServant()
    ref = server_orb.register_servant("echo/1", servant, ECHO_IDL)
    stub = client_orb.stub(ECHO_IDL, ref)
    for i in range(8):
        stub.notify(bytes([i]))
    sched.run()
    assert len(servant.notifications) == 8
    # 8 messages at max_messages=4 -> exactly 2 frames on the wire.
    assert net.stats["sent"] == 2


def test_batch_window_flushes_partial_batch():
    batching = BatchingPolicy(max_messages=100, window=1e-3)
    sched, net, (client_orb, server_orb) = make_world(batching=batching)
    servant = EchoServant()
    ref = server_orb.register_servant("echo/1", servant, ECHO_IDL)
    stub = client_orb.stub(ECHO_IDL, ref)
    stub.notify(b"only")
    sched.run()
    assert servant.notifications == [b"only"]
    assert net.stats["sent"] == 1


def test_twoway_flushes_queued_oneways_first():
    batching = BatchingPolicy(max_messages=100, window=1.0)
    sched, _, (client_orb, server_orb) = make_world(batching=batching)
    servant = EchoServant()
    ref = server_orb.register_servant("echo/1", servant, ECHO_IDL)
    stub = client_orb.stub(ECHO_IDL, ref)
    order = []
    original_notify = servant.notify
    servant.notify = lambda data: (order.append("notify"), original_notify(data))[1]
    original_echo = servant.echo
    servant.echo = lambda text: (order.append("echo"), original_echo(text))[1]
    stub.notify(b"queued")
    stub.echo("x", reply_to=lambda _: None)
    sched.run()
    assert order == ["notify", "echo"]


def test_dispatch_charges_server_cpu():
    sched, _, (client_orb, server_orb) = make_world()
    ref = server_orb.register_servant("echo/1", EchoServant(), ECHO_IDL)
    stub = client_orb.stub(ECHO_IDL, ref)
    stub.notify(b"load")
    sched.run()
    accounting = server_orb.processor.cpu_accounting
    assert accounting.get("orb.unmarshal", 0) > 0
    assert accounting.get("orb.dispatch", 0) > 0


def test_unknown_object_key_is_ignored():
    sched, _, (client_orb, server_orb) = make_world()
    ref = server_orb.register_servant("echo/1", EchoServant(), ECHO_IDL)
    # Point the reference at a key that is not active on the server.
    from repro.orb.ior import ObjectReference

    bogus = ObjectReference("Echo", b"echo/none", host=ref.host)
    stub = client_orb.stub(ECHO_IDL, bogus)
    stub.notify(b"x")
    sched.run()
    assert server_orb.stats["requests_served"] == 0


def test_duplicate_reply_is_ignored():
    sched, _, (client_orb, server_orb) = make_world()
    ref = server_orb.register_servant("echo/1", EchoServant(), ECHO_IDL)
    stub = client_orb.stub(ECHO_IDL, ref)
    replies = []
    stub.echo("hello", reply_to=replies.append)
    sched.run()
    assert replies == ["HELLO"]
    # Re-delivering the same reply must not invoke the handler again.
    from repro.orb.giop import ReplyMessage, REPLY_NO_EXCEPTION
    from repro.orb.idl import InterfaceDef  # noqa: F401  (documentation import)

    op = ECHO_IDL.operation("echo")
    frame = ReplyMessage(0, REPLY_NO_EXCEPTION, op.marshal_result("HELLO")).encode()
    client_orb.deliver_frame(frame, None)
    sched.run()
    assert replies == ["HELLO"]


def test_crashed_client_does_not_flush_batches():
    batching = BatchingPolicy(max_messages=100, window=1e-3)
    sched, net, (client_orb, server_orb) = make_world(batching=batching)
    servant = EchoServant()
    ref = server_orb.register_servant("echo/1", servant, ECHO_IDL)
    stub = client_orb.stub(ECHO_IDL, ref)
    stub.notify(b"doomed")
    client_orb.processor.crash()
    sched.run()
    assert servant.notifications == []


def test_servant_can_invoke_out_through_a_stub():
    # A middle-tier servant forwards to a backend during dispatch.
    sched, _, orbs = make_world(num=3)
    client_orb, middle_orb, backend_orb = orbs

    backend = EchoServant()
    backend_ref = backend_orb.register_servant("echo/backend", backend, ECHO_IDL)

    class ForwardingServant:
        def __init__(self, stub):
            self._stub = stub

        def notify(self, data):
            self._stub.notify(data + b"!")

        def echo(self, text):
            return text

    middle_stub = middle_orb.stub(ECHO_IDL, backend_ref)
    middle_ref = middle_orb.register_servant(
        "echo/middle", ForwardingServant(middle_stub), ECHO_IDL
    )
    stub = client_orb.stub(ECHO_IDL, middle_ref)
    stub.notify(b"hop")
    sched.run()
    assert backend.notifications == [b"hop!"]


def test_a_request_body_that_does_not_unmarshal_is_a_system_exception():
    """A string argument that claims 5 bytes and holds 2 is CORBA's
    MARSHAL at the server, not an error out of ``run()``."""
    from repro.orb.giop import REPLY_SYSTEM_EXCEPTION

    sched, _, (client_orb, server_orb) = make_world()
    ref = server_orb.register_servant("echo/1", EchoServant(), ECHO_IDL)
    replies = []
    echo = ECHO_IDL.operation("echo")
    client_orb.send_request(ref, echo, b"\x05\x00\x00\x00ab", lambda *reply: replies.append(reply))
    sched.run()
    assert replies == [(REPLY_SYSTEM_EXCEPTION, b"")]


def test_a_result_that_does_not_marshal_is_a_system_exception():
    from repro.orb.giop import REPLY_SYSTEM_EXCEPTION

    class WrongResult(EchoServant):
        def echo(self, text):
            return 42  # the IDL result is a string

    sched, _, (client_orb, server_orb) = make_world()
    ref = server_orb.register_servant("echo/1", WrongResult(), ECHO_IDL)
    errors = []
    client_orb.stub(ECHO_IDL, ref).echo("hi", reply_to=errors.append, on_exception=errors.append)
    sched.run()
    assert len(errors) == 1 and "status %d" % REPLY_SYSTEM_EXCEPTION in str(errors[0])


def test_bytes_after_the_last_argument_are_refused():
    """Only the canonical body dispatches: ``notify`` must not see
    ``b"Z"`` out of a body that has ``junk`` after it."""
    sched, _, (client_orb, server_orb) = make_world()
    servant = EchoServant()
    ref = server_orb.register_servant("echo/1", servant, ECHO_IDL)
    notify = ECHO_IDL.operation("notify")
    client_orb.send_request(ref, notify, b"\x01\x00\x00\x00Zjunk", None)
    client_orb.send_request(ref, notify, notify.marshal_args([b"Z"]), None)
    sched.run()
    assert servant.notifications == [b"Z"]
    assert server_orb.stats["requests_served"] == 2


class Refused(UserException):
    repository_id = "IDL:test/Refused:1.0"
    members = (("reason", "string"),)


GUARDED_IDL = InterfaceDef(
    "Guarded",
    [OperationDef("echo", [ParamDef("text", "string")], result="string", raises=(Refused,))],
)


@pytest.mark.parametrize(
    "status, body",
    [
        # a canonical result, then bytes after it
        ("no-exception", GUARDED_IDL.operation("echo").marshal_result("HELLO") + b"junk"),
        # a declared user exception cut off inside its member
        ("user-exception", Refused(reason="closed").marshal()[:-3]),
    ],
    ids=["result-with-trailing-bytes", "truncated-user-exception"],
)
def test_a_reply_that_does_not_unmarshal_is_reported_not_raised(status, body):
    """CORBA's MARSHAL at the client: the reply goes to ``on_exception`` as
    an ``IdlError``, and raises out of ``run()`` only for an invocation
    that gave no ``on_exception``."""
    from repro.orb.giop import REPLY_NO_EXCEPTION, REPLY_USER_EXCEPTION, ReplyMessage

    status = {"no-exception": REPLY_NO_EXCEPTION, "user-exception": REPLY_USER_EXCEPTION}[status]
    sched, _, (client_orb, server_orb) = make_world()
    ref = server_orb.register_servant("guarded/1", EchoServant(), GUARDED_IDL)
    stub = client_orb.stub(GUARDED_IDL, ref)
    replies, errors = [], []
    stub.echo("hello", reply_to=replies.append, on_exception=errors.append)
    # the malformed reply arrives first; the server's own is then a duplicate
    client_orb.deliver_frame(ReplyMessage(0, status, body).encode(), None)
    sched.run()
    assert replies == []
    assert len(errors) == 1 and type(errors[0]) is IdlError
    assert "does not unmarshal" in str(errors[0])

    stub.echo("again", reply_to=replies.append)
    with pytest.raises(IdlError):
        client_orb.deliver_frame(ReplyMessage(1, status, body).encode(), None)
        sched.run()
    assert replies == []
