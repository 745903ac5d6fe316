"""Unit tests for object references and the interception hook."""

import pytest

from repro.orb.core import OrbCostModel
from repro.orb.interceptor import ImmuneInterceptor
from repro.orb.ior import ObjectReference


def test_reference_identity_is_type_and_key():
    a = ObjectReference("Bank", "bank")
    b = ObjectReference("Bank", b"bank", host=3)
    c = ObjectReference("Bank", "other")
    assert a == b  # location does not affect identity
    assert hash(a) == hash(b)
    assert a != c


def test_reference_group_name():
    ref = ObjectReference("Bank", "bank-group")
    assert ref.group_name == "bank-group"
    assert ref.object_key == b"bank-group"


def test_reference_accepts_str_or_bytes_keys():
    assert ObjectReference("T", "k").object_key == ObjectReference("T", b"k").object_key


class RecordingManager:
    def __init__(self):
        self.bound = None
        self.outgoing = []

    def bind_orb(self, orb):
        self.bound = orb

    def outgoing_iiop(self, reference, frame, source_key):
        self.outgoing.append((reference, frame, source_key))


class FakeOrb:
    class processor:
        proc_id = 0

        @staticmethod
        def register_handler(port, fn):
            pass


def test_interceptor_binds_and_diverts_frames():
    manager = RecordingManager()
    interceptor = ImmuneInterceptor(manager)
    orb = FakeOrb()
    interceptor.attach(orb)
    assert manager.bound is orb
    ref = ObjectReference("T", "group")
    interceptor.send_frames(ref, [b"frame-1", b"frame-2"], b"client")
    assert manager.outgoing == [
        (ref, b"frame-1", b"client"),
        (ref, b"frame-2", b"client"),
    ]


def test_orb_cost_model_scaling(monkeypatch):
    monkeypatch.setattr(OrbCostModel, "marshal_base", 10e-6)
    monkeypatch.setattr(OrbCostModel, "marshal_per_byte", 1e-9)
    monkeypatch.setattr(OrbCostModel, "dispatch_base", 50e-6)
    costs = OrbCostModel()
    assert costs.marshal_cost(0) == pytest.approx(10e-6)
    assert costs.marshal_cost(1000) == pytest.approx(11e-6)
    assert costs.dispatch_cost() == pytest.approx(50e-6)
