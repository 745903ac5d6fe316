"""Application workloads.

* :mod:`repro.workloads.packet_driver` — the paper's performance test
  application (section 8): a client that streams fixed-length one-way
  IIOP invocations at a configurable rate to a server;
* :mod:`repro.workloads.open_loop` — the drills' open-loop driver and
  the echo and counter services it drives;
* :mod:`repro.workloads.bank` — a survivable bank: replicated accounts
  with balance invariants, used by the examples and Table 1 drills;
* :mod:`repro.workloads.sensors` — a sensor-fusion service in the
  spirit of the critical command-and-control applications the paper's
  introduction motivates;
* :mod:`repro.workloads.naming` — a survivable CORBA Naming Service
  (CosNaming, simplified): the bootstrap infrastructure every CORBA
  application depends on, replicated and voted.
"""

from repro.workloads.bank import BANK_IDL, BankServant
from repro.workloads.naming import NAMING_IDL, NamingClient, NamingServant
from repro.workloads.open_loop import (
    COUNTER_IDL,
    ECHO_IDL,
    CounterServant,
    EchoServant,
    OpenLoopDriver,
)
from repro.workloads.packet_driver import PACKET_IDL, PacketDriver, PacketSink
from repro.workloads.sensors import FUSION_IDL, FusionServant

__all__ = [
    "BANK_IDL",
    "BankServant",
    "COUNTER_IDL",
    "CounterServant",
    "ECHO_IDL",
    "EchoServant",
    "OpenLoopDriver",
    "NAMING_IDL",
    "NamingClient",
    "NamingServant",
    "PACKET_IDL",
    "PacketDriver",
    "PacketSink",
    "FUSION_IDL",
    "FusionServant",
]
