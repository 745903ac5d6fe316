"""Warm-passive replication — the contrast baseline of section 5.

The paper argues: "Critical applications that must tolerate value
faults, in addition to crash faults, require majority voting and, thus,
the use of active replication for every object of the application."
This module implements the alternative — warm-passive replication — so
the claim can be *demonstrated* rather than asserted:

* the group's lowest-numbered surviving member is the primary; it alone
  executes invocations and multicasts the responses (no voting);
* after every invocation the primary multicasts a state checkpoint
  through the same total order; backups apply it to their (idle)
  servants, staying warm;
* when the primary's processor is excluded, the next member takes over
  seamlessly — its state is current as of the last checkpoint, and the
  total order ensures every backup promoted at the same cut.

Passive replication survives *crashes* with one-third the execution
cost of active replication, but a corrupted primary's wrong answer goes
straight to the clients: there is nothing to outvote it.  The ablation
bench (`benchmarks/test_ablation_passive_vs_active.py`) injects the
same value fault into both modes and shows active+voting masking it
while passive delivers the corruption.
"""

from repro.core.identifiers import (
    ImmuneMessage,
    KIND_PASSIVE_UPDATE,
)
from repro.orb.cdr import MarshalError
from repro.orb.giop import GiopError, RequestMessage, decode_message

#: simulated CPU cost of applying one state checkpoint at a backup
CHECKPOINT_APPLY_COST = 25e-6


class PassiveGroupDriver:
    """Passive-replication behaviour for one group, on one manager.

    Made by the Replication Manager when it hosts a group registered
    as passive (:meth:`ImmuneSystem.deploy_passive`); the manager
    delegates the group's inbound traffic here instead of to a voter.
    """

    def __init__(self, manager, group_name, dup):
        self.manager = manager
        self.group_name = group_name
        #: the manager's filter for the group, so its exclusion sweep
        #: reaches this one too
        self._dup = dup
        self.stats = {
            "executed": 0,
            "checkpoints_sent": 0,
            "checkpoints_applied": 0,
            "checkpoints_refused": 0,
        }

    # ------------------------------------------------------------------
    # role
    # ------------------------------------------------------------------

    def is_primary(self):
        members = self.manager.groups.members(self.group_name)
        return bool(members) and members[0] == self.manager.my_id

    # ------------------------------------------------------------------
    # inbound traffic for the passive group
    # ------------------------------------------------------------------

    def on_message(self, message):
        if message.kind == KIND_PASSIVE_UPDATE:
            self._apply_checkpoint(message)
            return
        op_key = (message.kind, message.source_group, message.target_group, message.op_num)
        if not self._dup.mark_delivered(
            op_key, message.source_group, message.replica_proc, self.manager.groups
        ):
            return
        if not self.is_primary():
            return  # backups stay warm through checkpoints only
        self._execute(message)

    def _execute(self, message):
        manager = self.manager
        self.stats["executed"] += 1
        manager.processor.charge(25e-6, "rm.passive")
        if _is_oneway(message.body):
            manager._orb.deliver_frame(message.body, None)
            # The dispatch is queued on the application lane; queue the
            # checkpoint right behind it so it captures the post-op state.
            manager.processor.execute(1e-6, self.checkpoint, category="rm.passive")
            return
        respond = manager._response_sink(
            message.source_group, message.op_num, message.target_group
        )

        def respond_then_checkpoint(reply_frame):
            respond(reply_frame)
            self.checkpoint(message.op_num)

        manager._orb.deliver_frame(message.body, respond_then_checkpoint)

    def checkpoint(self, op_num=0):
        """Multicast the servant's state to the group's backups."""
        manager = self.manager
        get_state = getattr(manager.servant(self.group_name), "get_state", None)
        if get_state is None:
            return
        self.stats["checkpoints_sent"] += 1
        checkpoint = ImmuneMessage(
            KIND_PASSIVE_UPDATE, self.group_name, op_num, manager.my_id,
            self.group_name, get_state(),
        )
        manager.endpoint.multicast(self.group_name, checkpoint.encode())

    def _apply_checkpoint(self, message):
        # The primary's own checkpoint echoes back; only backups apply.
        if message.replica_proc == self.manager.my_id:
            return
        servant = self.manager.servant(self.group_name)
        set_state = getattr(servant, "set_state", None)
        if set_state is None:
            return
        self.manager.processor.charge(CHECKPOINT_APPLY_COST, "rm.passive")
        try:
            set_state(message.body)
        except MarshalError:
            # a state that does not unmarshal is refused, not applied
            self.stats["checkpoints_refused"] += 1
            return
        self.stats["checkpoints_applied"] += 1


def _is_oneway(body):
    """A one-way request needs no response but still a checkpoint."""
    try:
        request = decode_message(body)
    except GiopError:
        return False
    return isinstance(request, RequestMessage) and not request.response_expected
