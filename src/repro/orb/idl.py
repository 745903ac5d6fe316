"""Interface definitions and generated stubs/skeletons.

In CORBA, server interfaces are written in IDL and compiled into a
client-side *stub* (marshals invocations) and a server-side *skeleton*
(unmarshals and dispatches to the servant).  Here interfaces are
declared programmatically:

    counter_idl = InterfaceDef(
        "Counter",
        [
            OperationDef("add", [ParamDef("amount", "long")], result="long"),
            OperationDef("log", [ParamDef("note", "string")], oneway=True),
        ],
    )

``InterfaceDef.stub_for`` builds a dynamic proxy whose methods marshal
their arguments and hand a GIOP Request to the ORB; ``skeleton_for``
builds the inverse dispatcher that calls plain Python methods on the
servant.  The application object itself — the servant — never sees
GIOP, CDR, groups, or voting, which is the transparency property the
Immune system depends on.
"""

from repro import perf
from repro.orb.cdr import ERRORS, TAIL, MarshalError
from repro.orb.schema import Schema

#: (parameter type tags, argument values) -> marshalled body.  Shared
#: across operations: two operations with the same signature marshal
#: the same arguments to the same bytes by construction.
_MARSHAL_CACHE = perf.register_cache(perf.BytesKeyedCache("idl.marshal"))


class IdlError(Exception):
    """Raised on interface definition or dispatch errors, and on a body
    that does not unmarshal (CORBA's MARSHAL)."""


def _pack(schema, values, what, name):
    """``schema``'s encoding of ``values``; a value its tag cannot hold
    raises :class:`IdlError` saying they are the ``what`` of ``name``."""
    try:
        return schema.pack(values)
    except ERRORS as exc:
        raise IdlError("%s of %s: %s" % (what, name, exc))


class UserException(Exception):
    """Base class for IDL-declared application exceptions.

    Subclasses declare a ``repository_id`` and optional typed
    ``members``; a servant raising one produces a GIOP Reply with
    USER_EXCEPTION status, and the client stub re-raises it (or passes
    it to the invocation's ``on_exception`` callback).
    """

    repository_id = "IDL:repro/UserException:1.0"
    #: ((member name, CDR type tag), ...)
    members = ()
    #: the body: the repository id, then the members
    _schema = Schema(("repository_id", "string"), error=IdlError)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._schema = Schema(("repository_id", "string"), *cls.members, error=IdlError)

    def __init__(self, **values):
        self.values = {}
        for name, _tag in self.members:
            if name not in values:
                raise IdlError(
                    "%s missing member %r" % (type(self).__name__, name)
                )
            self.values[name] = values[name]
        unknown = set(values) - {name for name, _ in self.members}
        if unknown:
            raise IdlError(
                "%s has no members %s" % (type(self).__name__, sorted(unknown))
            )
        super().__init__(self.repository_id)

    def marshal(self):
        values = [self.repository_id] + [self.values[name] for name, _ in self.members]
        return _pack(self._schema, values, "members", type(self).__name__)

    @classmethod
    def unmarshal(cls, body):
        repository_id, *values = cls._schema.unpack(body)
        if repository_id != cls.repository_id:
            raise IdlError(
                "expected exception %s, got %s" % (cls.repository_id, repository_id)
            )
        return cls(**{name: value for (name, _), value in zip(cls.members, values)})

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other.repository_id == self.repository_id
            and other.values == self.values
        )

    def __hash__(self):
        return hash((self.repository_id, tuple(sorted(self.values.items()))))

    def __repr__(self):
        body = ", ".join("%s=%r" % kv for kv in sorted(self.values.items()))
        return "%s(%s)" % (type(self).__name__, body)


#: a user exception body as far as its repository id
_EXCEPTION_ID = Schema(("repository_id", "string"), ("members", TAIL), error=IdlError)


def peek_exception_id(body):
    """The repository id of a marshalled user exception."""
    return _EXCEPTION_ID.unpack(body)[0]


class ParamDef:
    """One operation parameter: a name plus a CDR type tag."""

    def __init__(self, name, type_tag):
        self.name = name
        self.type_tag = type_tag

    def __repr__(self):
        return "ParamDef(%s: %r)" % (self.name, self.type_tag)


class OperationDef:
    """One IDL operation: parameters, optional result, oneway flag."""

    def __init__(self, name, params=(), result=None, oneway=False, raises=()):
        if oneway and result is not None:
            raise IdlError("oneway operation %r cannot have a result" % name)
        if oneway and raises:
            raise IdlError("oneway operation %r cannot raise" % name)
        self.name = name
        self.params = list(params)
        self._tag_key = tuple(param.type_tag for param in self.params)
        self._args = Schema(*((p.name, p.type_tag) for p in self.params), error=IdlError)
        self.result = result
        self._result = None if result is None else Schema(("result", result), error=IdlError)
        self.oneway = oneway
        #: UserException subclasses this operation may raise
        self.raises = tuple(raises)

    def exception_for(self, repository_id):
        for exc_class in self.raises:
            if exc_class.repository_id == repository_id:
                return exc_class
        return None

    def marshal_args(self, args):
        if len(args) != len(self.params):
            raise IdlError(
                "operation %s expects %d arguments, got %d"
                % (self.name, len(self.params), len(args))
            )
        # Marshalled bytes depend only on the parameter type tags and
        # the argument values, so a constant-payload stream (the paper's
        # packet driver) marshals once.  Unhashable arguments simply
        # fall through to the generic path.
        try:
            key = (self._tag_key, tuple(args))
            body = _MARSHAL_CACHE.get(key)
            if body is None:
                body = _MARSHAL_CACHE.put(key, self._marshal_args(args))
            return body
        except TypeError:
            return self._marshal_args(args)

    def _marshal_args(self, args):
        return _pack(self._args, args, "arguments", self.name)

    def unmarshal_args(self, body):
        """The arguments ``body`` is the canonical encoding of; raises
        :class:`IdlError` on anything else."""
        return self._args.unpack(body)

    def marshal_result(self, value):
        if self._result is None:
            return b""
        return _pack(self._result, (value,), "result", self.name)

    def unmarshal_result(self, body):
        if self._result is None:
            return None
        return self._result.unpack(body)[0]

    def __repr__(self):
        kind = "oneway " if self.oneway else ""
        return "%sOperationDef(%s/%d)" % (kind, self.name, len(self.params))


class AttributeDef:
    """An IDL ``attribute``: expands to ``_get_name``/``_set_name`` ops.

    As in CORBA, an attribute is sugar for an accessor pair; servants
    implement them as plain Python properties (or attributes) of the
    same name, and the generated skeleton bridges the calling
    conventions.  ``readonly=True`` suppresses the setter.
    """

    def __init__(self, name, type_tag, readonly=False):
        self.name = name
        self.type_tag = type_tag
        self.readonly = readonly

    def operations(self):
        ops = [OperationDef("_get_%s" % self.name, [], result=self.type_tag)]
        if not self.readonly:
            ops.append(
                OperationDef("_set_%s" % self.name, [ParamDef("value", self.type_tag)])
            )
        return ops

    def __repr__(self):
        kind = "readonly attribute" if self.readonly else "attribute"
        return "AttributeDef(%s %s: %r)" % (kind, self.name, self.type_tag)


class InterfaceDef:
    """A named collection of operations (one IDL ``interface``).

    ``operations`` may mix :class:`OperationDef` and
    :class:`AttributeDef` entries; attributes expand to their accessor
    operations.
    """

    def __init__(self, name, operations):
        self.name = name
        self.operations = {}
        self.attributes = {}
        expanded = []
        for entry in operations:
            if isinstance(entry, AttributeDef):
                self.attributes[entry.name] = entry
                expanded.extend(entry.operations())
            else:
                expanded.append(entry)
        for op in expanded:
            if op.name in self.operations:
                raise IdlError("duplicate operation %r in interface %s" % (op.name, name))
            self.operations[op.name] = op

    def operation(self, name):
        try:
            return self.operations[name]
        except KeyError:
            raise IdlError("interface %s has no operation %r" % (self.name, name))

    def stub_for(self, orb, reference):
        return Stub(self, orb, reference)

    def skeleton_for(self, servant):
        return Skeleton(self, servant)

    def __repr__(self):
        return "InterfaceDef(%s, %d ops)" % (self.name, len(self.operations))


class Stub:
    """Client-side proxy: attribute access yields invoking callables.

    Two-way operations take a ``reply_to`` callback as their final
    argument (the simulation is event-driven, so results arrive
    asynchronously); one-way operations return immediately.
    """

    def __init__(self, interface, orb, reference):
        self._interface = interface
        self._orb = orb
        self._reference = reference

    def __getattr__(self, op_name):
        operation = self._interface.operation(op_name)

        if operation.oneway:

            def invoke_oneway(*args):
                body = operation.marshal_args(args)
                self._orb.send_request(self._reference, operation, body, None)

            invoke_oneway.__name__ = op_name
            # Cache the invoker on the instance: later accesses bypass
            # __getattr__ and reuse the closure instead of rebuilding it
            # on every invocation.
            self.__dict__[op_name] = invoke_oneway
            return invoke_oneway

        def invoke(*args, reply_to, on_exception=None, timeout=None):
            body = operation.marshal_args(args)

            def handle_reply(reply_status, reply_body):
                from repro.orb.giop import (
                    GiopError,
                    InvocationTimeout,
                    REPLY_NO_EXCEPTION,
                    REPLY_USER_EXCEPTION,
                )

                # A result or user exception that does not unmarshal is
                # CORBA's MARSHAL: reported like any other failed
                # invocation, never raised out of the scheduler.
                try:
                    error = None
                    if reply_status == REPLY_NO_EXCEPTION:
                        result = operation.unmarshal_result(reply_body)
                    elif reply_status == REPLY_USER_EXCEPTION:
                        repository_id = peek_exception_id(reply_body)
                        exc_class = operation.exception_for(repository_id)
                        if exc_class is None:
                            error = IdlError(
                                "undeclared user exception %s from %s"
                                % (repository_id, operation.name)
                            )
                        else:
                            error = exc_class.unmarshal(reply_body)
                    elif reply_status == 0xFFFF:
                        error = InvocationTimeout(
                            "no reply to %s within its deadline" % operation.name
                        )
                    else:
                        error = GiopError(
                            "system exception from %s (status %d)"
                            % (operation.name, reply_status)
                        )
                except (IdlError, MarshalError) as exc:
                    error = IdlError("reply to %s does not unmarshal: %s" % (operation.name, exc))
                if error is None:
                    reply_to(result)
                elif on_exception is not None:
                    on_exception(error)
                else:
                    raise error

            self._orb.send_request(
                self._reference, operation, body, handle_reply, timeout=timeout
            )

        invoke.__name__ = op_name
        self.__dict__[op_name] = invoke
        return invoke

    def __repr__(self):
        return "Stub(%s -> %r)" % (self._interface.name, self._reference)


class Skeleton:
    """Server-side dispatcher from GIOP Requests onto a plain servant."""

    def __init__(self, interface, servant):
        self.interface = interface
        self.servant = servant

    def dispatch(self, operation_name, body):
        """Invoke the servant; returns the marshalled result bytes."""
        operation = self.interface.operation(operation_name)
        args = operation.unmarshal_args(body)
        method = getattr(self.servant, operation_name, None)
        if method is None and operation_name[:5] in ("_get_", "_set_"):
            # IDL attribute accessors bridge to plain Python attributes
            # of the same name on the servant.
            attr = operation_name[5:]
            if attr in self.interface.attributes:
                if operation_name.startswith("_get_"):
                    return operation.marshal_result(getattr(self.servant, attr))
                setattr(self.servant, attr, args[0])
                return operation.marshal_result(None)
        if method is None:
            raise IdlError(
                "servant %r does not implement %s.%s"
                % (type(self.servant).__name__, self.interface.name, operation_name)
            )
        result = method(*args)
        return operation.marshal_result(result)

    def __repr__(self):
        return "Skeleton(%s over %s)" % (self.interface.name, type(self.servant).__name__)
