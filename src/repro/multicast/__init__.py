"""The Secure Multicast Protocols (SecureRing family).

This package reproduces the three-protocol stack of section 7 of the
paper, which the Replication Manager depends on for its voting
guarantees:

* :mod:`repro.multicast.delivery` — the message delivery protocol: a
  logical token ring imposing secure reliable totally ordered delivery,
  with MD4 digests of each message carried in the token and one RSA
  signature per token amortised over up to *j* messages per visit;
* :mod:`repro.multicast.membership` — the processor membership
  protocol: signed proposal rounds that agree on and install a new
  membership when processors fail or are detected Byzantine;
* :mod:`repro.multicast.detector` — the Byzantine fault detector:
  timeout-, token-form-, mutant-token- and value-fault-based suspicion
  feeding the membership protocol.

:class:`repro.multicast.endpoint.SecureGroupEndpoint` ties the three
together per processor and is the interface the Replication Manager
programs against (the paper's "object group interface" sits directly
above it).  :mod:`repro.multicast.adversary` hosts the Byzantine
behaviours used to exercise the detector in tests and in the Table 1/5
benches: rules at a compromised processor's network edge
(``Processor.stage``) over the frames it sends and receives.
"""

from repro.multicast.config import MulticastConfig, SecurityLevel
from repro.multicast.endpoint import SecureGroupEndpoint

__all__ = ["MulticastConfig", "SecurityLevel", "SecureGroupEndpoint"]
