"""Guard: every wire frame declares its fields once, and only the codec
derived from the declaration marshals them.

A frame class in :data:`MODULES` — a public class with an ``encode`` —
has a :class:`~repro.orb.schema.Schema` whose fields are its slots, and
the modules build no ``CdrEncoder``/``CdrDecoder`` of their own: encode,
decode, repr and the hot templates all come from
:mod:`repro.orb.schema`, which derives one template for all three
template memos.  Application bodies, the state checkpoint and servant
states are declared :class:`Schema` values too (:data:`DECLARED`), and
:mod:`repro.orb.cdr` holds the one tag compiler the cursors also use.
"""

import importlib
import inspect
import pathlib
import re

import repro
from repro.orb.cdr import _PRIMITIVES, CdrDecoder, CdrEncoder
from repro.orb.schema import Schema

SRC = pathlib.Path(repro.__file__).parent

MODULES = (
    "repro.multicast.messages",
    "repro.multicast.token",
    "repro.core.identifiers",
    "repro.orb.giop",
    "repro.core.groups",
    "repro.core.value_fault",
)

#: modules whose bodies and states marshal through declarations only
DECLARED = ("orb/idl.py", "core/manager.py", "elastic/migration.py") + tuple(
    str(path.relative_to(SRC)) for path in sorted(SRC.joinpath("workloads").glob("*.py"))
)

FRAMES = {
    "RegularMessage", "MessageFragment", "MembershipProposal", "JoinRequest",
    "MembershipCommit", "Token", "TokenCertificate", "ImmuneMessage",
    "RequestMessage", "ReplyMessage", "GroupUpdate", "ValueFaultVote",
}


def _frame_classes():
    for name in MODULES:
        module = importlib.import_module(name)
        for cls_name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == name and not cls_name.startswith("_") and hasattr(cls, "encode"):
                yield cls


def test_every_frame_class_has_a_declaration():
    found = set()
    for cls in _frame_classes():
        found.add(cls.__name__)
        assert isinstance(cls.__dict__.get("SCHEMA"), Schema), cls.__name__
        assert set(cls.SCHEMA.names) <= set(cls.__slots__), cls.__name__
    assert found == FRAMES


def test_no_frame_module_marshals_by_hand():
    for name in MODULES:
        path = SRC.joinpath(*name.split(".")[1:]).with_suffix(".py")
        source = path.read_text()
        assert not re.search(r"\bCdr(En|De)coder\(", source), path.name



def test_no_body_or_state_is_marshalled_through_a_cursor():
    for name in DECLARED:
        source = SRC.joinpath(name).read_text()
        assert not re.search(r"\bCdr(En|De)coder\(", source), name


def test_the_cursors_have_no_per_tag_methods():
    tags = set(_PRIMITIVES) | {"string", "octets"}
    for cursor, verb in ((CdrEncoder, "write_"), (CdrDecoder, "read_")):
        assert not [tag for tag in tags if hasattr(cursor, verb + tag)], cursor.__name__


def test_one_tag_compiler():
    compilers = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if re.search(r"^def _field\(", path.read_text(), re.M)
    ]
    assert compilers == ["orb/cdr.py"]
