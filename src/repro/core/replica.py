"""Object-replica fault injection (Table 1, bottom rows).

The paper's Table 1 separates *object replica* faults from processor
and communication faults: a replica may crash, omit to send, or send an
incorrect value, even while its hosting processor otherwise behaves.
These injectors wrap one replica's servant or tap one Replication
Manager's outbound path, leaving everything else untouched — so the
experiments can show majority voting masking the fault and the value
fault detector attributing it.
"""

from repro.orb.giop import decode_message, RequestMessage


class ValueFaultServant:
    """Wraps a servant so selected results are corrupted.

    Produces *server-side* value faults: the replica computes a wrong
    response, which output majority voting at the clients must outvote,
    and which the value fault detector must attribute to this replica's
    processor.
    """

    def __init__(self, inner, corrupt_from=0, corrupt_operations=None):
        self._inner = inner
        self._corrupt_from = corrupt_from
        self._corrupt_operations = corrupt_operations
        self._calls = 0
        self.corruptions = 0

    def __getattr__(self, name):
        method = getattr(self._inner, name)
        if not callable(method):
            return method

        def wrapped(*args):
            self._calls += 1
            result = method(*args)
            should_corrupt = self._calls > self._corrupt_from and (
                self._corrupt_operations is None or name in self._corrupt_operations
            )
            if should_corrupt and result is not None:
                self.corruptions += 1
                return _corrupt_value(result)
            return result

        return wrapped


def _corrupt_value(value):
    """Deterministically corrupt a result value."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 666
    if isinstance(value, float):
        return value + 666.0
    if isinstance(value, str):
        return value + "!CORRUPT"
    if isinstance(value, (bytes, bytearray)):
        return bytes(value) + b"\xde\xad"
    if isinstance(value, list):
        return value + [0]
    if isinstance(value, dict):
        corrupted = dict(value)
        for key in sorted(corrupted):
            corrupted[key] = _corrupt_value(corrupted[key])
            break  # corrupting one field suffices
        return corrupted
    return value


class ClientInvocationCorrupter:
    """Taps a Replication Manager so outgoing invocations are corrupted.

    Produces *client-side* value faults: one client replica multicasts
    an invocation whose value differs from its peers'.  Input majority
    voting at the servers must suppress it, and the value fault
    detector must attribute it.
    """

    def __init__(self, manager, from_op=0, flip_byte=0xFF):
        self.manager = manager
        self.from_op = from_op
        self.flip_byte = flip_byte
        self.corruptions = 0
        original = manager.outgoing_iiop
        corrupter = self

        def tapped(reference, frame, source_key):
            counter = manager._op_counters.get(
                bytes(source_key).decode("utf-8") if source_key else "", 0
            )
            if counter >= corrupter.from_op:
                message = decode_message(frame)
                if isinstance(message, RequestMessage) and message.body:
                    corrupter.corruptions += 1
                    body = bytearray(message.body)
                    body[0] ^= corrupter.flip_byte
                    frame = RequestMessage(
                        message.request_id,
                        message.object_key,
                        message.operation,
                        bytes(body),
                        message.response_expected,
                    ).encode()
            original(reference, frame, source_key)

        manager.outgoing_iiop = tapped


class SendOmissionTap:
    """Taps a Replication Manager so it stops sending invocations.

    Produces *send omission* faults: the replica computes but its copy
    never reaches the group.  Majority voting proceeds without it
    (Table 1 lists no detection for pure omission — the vote simply
    completes from the other replicas' copies).
    """

    def __init__(self, manager, from_time=0.0, omit_responses=False):
        self.manager = manager
        self.from_time = from_time
        self.omitted = 0
        original_out = manager.outgoing_iiop
        tap = self

        def tapped(reference, frame, source_key):
            if manager.scheduler.now >= tap.from_time:
                tap.omitted += 1
                return
            original_out(reference, frame, source_key)

        manager.outgoing_iiop = tapped
        if omit_responses:
            original_sink_factory = manager._response_sink

            def muted_sink_factory(client_group, op_num, server_group):
                inner = original_sink_factory(client_group, op_num, server_group)

                def maybe(reply_frame):
                    if manager.scheduler.now >= tap.from_time:
                        tap.omitted += 1
                        return
                    inner(reply_frame)

                return maybe

            manager._response_sink = muted_sink_factory


def crash_replica(immune, group_name, pid):
    """Crash a single replica (not its processor).

    The replica is withdrawn (``immune.withdraw_replica``: servant
    deactivated, group dropped, handle updated) and the group's
    membership is updated so every Replication Manager lowers the
    group's degree — the paper's "use of replicas on other processors"
    recovery for replica crashes.
    """
    from repro.core.groups import GroupUpdate, UPDATE_REMOVE
    from repro.core.identifiers import BASE_GROUP, ImmuneMessage, KIND_GROUP_UPDATE

    immune.withdraw_replica(group_name, pid)
    manager = immune.managers[pid]
    update = GroupUpdate(UPDATE_REMOVE, group_name, pid)
    announce = ImmuneMessage(
        KIND_GROUP_UPDATE, group_name, 0, pid, BASE_GROUP, update.encode()
    )
    manager.endpoint.multicast(BASE_GROUP, announce.encode())
