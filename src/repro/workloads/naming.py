"""A survivable CORBA Naming Service (CosNaming, simplified).

CORBA applications bootstrap through the Naming Service: servers bind
object references under hierarchical names, clients resolve them.  That
makes it exactly the kind of critical infrastructure object the Immune
system exists for — corrupt the name service and every lookup in the
system can be redirected.  Here it is an ordinary replicated servant:
three-way actively replicated, all binds and resolves voted.

Names are sequences of (id, kind) components, CosNaming-style, flattened
on the wire as "id.kind/id.kind/...".  Bindings store stringified
object references (the group name + type id), which
:class:`NamingClient` turns back into live stubs.
"""

from repro.orb.idl import (
    InterfaceDef,
    OperationDef,
    ParamDef,
    UserException,
)
from repro.orb.ior import ObjectReference
from repro.orb.schema import Schema


class NotFound(UserException):
    repository_id = "IDL:repro/CosNaming/NotFound:1.0"
    members = (("rest_of_name", "string"),)


class AlreadyBound(UserException):
    repository_id = "IDL:repro/CosNaming/AlreadyBound:1.0"
    members = (("name", "string"),)


class InvalidName(UserException):
    repository_id = "IDL:repro/CosNaming/InvalidName:1.0"
    members = (("name", "string"),)


NAMING_IDL = InterfaceDef(
    "NamingContext",
    [
        OperationDef(
            "bind",
            [ParamDef("name", "string"), ParamDef("reference", "string")],
            result="boolean",
            raises=(AlreadyBound, InvalidName),
        ),
        OperationDef(
            "rebind",
            [ParamDef("name", "string"), ParamDef("reference", "string")],
            result="boolean",
            raises=(InvalidName,),
        ),
        OperationDef(
            "resolve",
            [ParamDef("name", "string")],
            result="string",
            raises=(NotFound, InvalidName),
        ),
        OperationDef(
            "unbind",
            [ParamDef("name", "string")],
            result="boolean",
            raises=(NotFound, InvalidName),
        ),
        OperationDef(
            "list_names",
            [ParamDef("prefix", "string")],
            result=("sequence", "string"),
        ),
    ],
)


def stringify_reference(reference):
    """Flatten an ObjectReference for storage in the name service."""
    return "%s|%s" % (reference.type_id, reference.group_name)


def destringify_reference(text):
    type_id, _, group = text.partition("|")
    return ObjectReference(type_id, group)


def _validate(name):
    if not name or name.startswith("/") or name.endswith("/") or "//" in name:
        raise InvalidName(name=name)


#: the naming context's checkpoint: its (name, reference) bindings by name
_STATE = Schema(("bindings", ("sequence", ("record", (("name", "string"), ("ref", "string"))))))


class NamingServant:
    """Deterministic hierarchical name table."""

    def __init__(self):
        self._bindings = {}

    def bind(self, name, reference):
        _validate(name)
        if name in self._bindings:
            raise AlreadyBound(name=name)
        self._bindings[name] = reference
        return True

    def rebind(self, name, reference):
        _validate(name)
        self._bindings[name] = reference
        return True

    def resolve(self, name):
        _validate(name)
        try:
            return self._bindings[name]
        except KeyError:
            raise NotFound(rest_of_name=name)

    def unbind(self, name):
        _validate(name)
        if name not in self._bindings:
            raise NotFound(rest_of_name=name)
        del self._bindings[name]
        return True

    def list_names(self, prefix):
        return sorted(n for n in self._bindings if n.startswith(prefix))

    # checkpointing for reallocation
    def get_state(self):
        return _STATE.pack((sorted(self._bindings.items()),))

    def set_state(self, state):
        (bindings,) = _STATE.unpack(state)
        self._bindings = dict(bindings)

    @classmethod
    def from_state(cls, state):
        servant = cls()
        servant.set_state(state)
        return servant


class NamingClient:
    """Convenience wrapper turning name-service strings into stubs.

    One per client replica: wraps that replica's naming stub and the
    ORB facade needed to build stubs for resolved references.
    """

    def __init__(self, immune, client_handle, naming_handle):
        self.immune = immune
        self.client_handle = client_handle
        self._stubs = dict(
            immune.client_stubs(client_handle, NAMING_IDL, naming_handle)
        )

    def bind(self, name, handle, done=None, on_exception=None):
        """Bind a deployed group's reference under ``name`` (all replicas)."""
        text = stringify_reference(handle.reference)
        for pid, stub in self._stubs.items():
            stub.bind(
                name,
                text,
                reply_to=done or (lambda _ok: None),
                on_exception=on_exception or (lambda _e: None),
            )

    def resolve_stub(self, name, interface, callback, on_exception=None):
        """Resolve ``name`` and hand ``callback(pid, stub)`` a live stub
        per client replica."""
        for pid, stub in self._stubs.items():

            def deliver(text, pid=pid):
                reference = destringify_reference(text)
                live = self.immune.orbs[pid].stub(
                    interface, reference, source_key=self.client_handle.group_name
                )
                callback(pid, live)

            stub.resolve(
                name, reply_to=deliver, on_exception=on_exception or (lambda _e: None)
            )
