"""Unit tests for IDL interfaces, stubs, and skeletons."""

import pytest

from repro.orb.idl import IdlError, InterfaceDef, OperationDef, ParamDef


@pytest.fixture
def counter_idl():
    return InterfaceDef(
        "Counter",
        [
            OperationDef("add", [ParamDef("amount", "long")], result="long"),
            OperationDef(
                "set_label",
                [ParamDef("label", "string")],
                oneway=True,
            ),
            OperationDef("snapshot", [], result=("sequence", "long")),
        ],
    )


class CounterServant:
    def __init__(self):
        self.value = 0
        self.label = ""
        self.history = []

    def add(self, amount):
        self.value += amount
        self.history.append(self.value)
        return self.value

    def set_label(self, label):
        self.label = label

    def snapshot(self):
        return list(self.history)


class RecordingOrb:
    """Stands in for the real ORB underneath a stub."""

    def __init__(self):
        self.calls = []

    def send_request(self, reference, operation, body, reply_handler, timeout=None):
        self.calls.append((reference, operation, body, reply_handler))


def test_operation_marshal_roundtrip(counter_idl):
    op = counter_idl.operation("add")
    body = op.marshal_args([41])
    assert op.unmarshal_args(body) == [41]
    result = op.marshal_result(42)
    assert op.unmarshal_result(result) == 42


def test_oneway_cannot_have_result():
    with pytest.raises(IdlError):
        OperationDef("bad", [], result="long", oneway=True)


def test_duplicate_operation_rejected():
    with pytest.raises(IdlError):
        InterfaceDef("X", [OperationDef("op"), OperationDef("op")])


def test_unknown_operation_rejected(counter_idl):
    with pytest.raises(IdlError):
        counter_idl.operation("subtract")


def test_wrong_arity_rejected(counter_idl):
    with pytest.raises(IdlError):
        counter_idl.operation("add").marshal_args([1, 2])


def test_bad_argument_type_reports_parameter(counter_idl):
    with pytest.raises(IdlError) as err:
        counter_idl.operation("set_label").marshal_args([42])
    assert "label" in str(err.value)


def test_skeleton_dispatch(counter_idl):
    servant = CounterServant()
    skeleton = counter_idl.skeleton_for(servant)
    op = counter_idl.operation("add")
    result_body = skeleton.dispatch("add", op.marshal_args([5]))
    assert op.unmarshal_result(result_body) == 5
    assert servant.value == 5


def test_skeleton_void_result(counter_idl):
    skeleton = counter_idl.skeleton_for(CounterServant())
    body = counter_idl.operation("set_label").marshal_args(["hello"])
    assert skeleton.dispatch("set_label", body) == b""


def test_skeleton_missing_method(counter_idl):
    class Empty:
        pass

    skeleton = counter_idl.skeleton_for(Empty())
    with pytest.raises(IdlError):
        skeleton.dispatch("add", counter_idl.operation("add").marshal_args([1]))


def test_stub_marshals_and_sends(counter_idl):
    orb = RecordingOrb()
    stub = counter_idl.stub_for(orb, "ref")
    results = []
    stub.add(41, reply_to=results.append)
    ((reference, operation, body, reply_handler),) = orb.calls
    assert reference == "ref"
    assert operation.name == "add"
    assert operation.unmarshal_args(body) == [41]
    # Simulate the reply arriving.
    from repro.orb.giop import REPLY_NO_EXCEPTION

    reply_handler(REPLY_NO_EXCEPTION, operation.marshal_result(42))
    assert results == [42]


def test_stub_oneway_has_no_reply_handler(counter_idl):
    orb = RecordingOrb()
    stub = counter_idl.stub_for(orb, "ref")
    stub.set_label("hi")
    ((_, operation, _, reply_handler),) = orb.calls
    assert operation.oneway
    assert reply_handler is None


def test_stub_unknown_operation(counter_idl):
    stub = counter_idl.stub_for(RecordingOrb(), "ref")
    with pytest.raises(IdlError):
        stub.nonexistent()


# ----------------------------------------------------------------------
# IDL attributes
# ----------------------------------------------------------------------

from repro.orb.idl import AttributeDef  # noqa: E402


@pytest.fixture
def thermostat_idl():
    return InterfaceDef(
        "Thermostat",
        [
            AttributeDef("target_c", "long"),
            AttributeDef("model", "string", readonly=True),
            OperationDef("tick", [], result="long"),
        ],
    )


class ThermostatServant:
    model = "TX-9"

    def __init__(self):
        self.target_c = 20

    def tick(self):
        return self.target_c


def test_attribute_expands_to_accessor_operations(thermostat_idl):
    assert "_get_target_c" in thermostat_idl.operations
    assert "_set_target_c" in thermostat_idl.operations
    assert "_get_model" in thermostat_idl.operations
    assert "_set_model" not in thermostat_idl.operations  # readonly


def test_attribute_get_dispatch(thermostat_idl):
    skeleton = thermostat_idl.skeleton_for(ThermostatServant())
    op = thermostat_idl.operation("_get_target_c")
    assert op.unmarshal_result(skeleton.dispatch("_get_target_c", b"")) == 20


def test_attribute_set_dispatch(thermostat_idl):
    servant = ThermostatServant()
    skeleton = thermostat_idl.skeleton_for(servant)
    op = thermostat_idl.operation("_set_target_c")
    skeleton.dispatch("_set_target_c", op.marshal_args([25]))
    assert servant.target_c == 25


def test_readonly_attribute_get(thermostat_idl):
    skeleton = thermostat_idl.skeleton_for(ThermostatServant())
    op = thermostat_idl.operation("_get_model")
    assert op.unmarshal_result(skeleton.dispatch("_get_model", b"")) == "TX-9"


def test_attribute_accessors_work_through_stub(thermostat_idl):
    orb = RecordingOrb()
    stub = thermostat_idl.stub_for(orb, "ref")
    results = []
    stub._get_target_c(reply_to=results.append)
    ((_, operation, _, reply_handler),) = orb.calls
    assert operation.name == "_get_target_c"
    from repro.orb.giop import REPLY_NO_EXCEPTION

    reply_handler(REPLY_NO_EXCEPTION, operation.marshal_result(21))
    assert results == [21]


def test_servant_method_overrides_attribute_bridge(thermostat_idl):
    class CustomServant(ThermostatServant):
        def _get_target_c(self):
            return 99

    skeleton = thermostat_idl.skeleton_for(CustomServant())
    op = thermostat_idl.operation("_get_target_c")
    assert op.unmarshal_result(skeleton.dispatch("_get_target_c", b"")) == 99


def test_marshal_args_memo_matches_generic(counter_idl):
    """The marshal memo returns the generic encoder's exact bytes and
    falls back cleanly for unhashable arguments."""
    add = counter_idl.operation("add")
    bulk = OperationDef("bulk", [ParamDef("values", ("sequence", "long"))], oneway=True)
    assert add.marshal_args([7]) == add._marshal_args([7])
    # second call is a cache hit; bytes must not change
    assert add.marshal_args([7]) == add._marshal_args([7])
    # list arguments are unhashable: the memo falls through cleanly
    assert bulk.marshal_args([[1, 2, 3]]) == bulk._marshal_args([[1, 2, 3]])


def test_marshal_args_memo_distinguishes_values(counter_idl):
    add = counter_idl.operation("add")
    assert add.marshal_args([1]) != add.marshal_args([2])
