"""What one token receipt and one token origination cost the interpreter.

    python3 tools/visit_cost.py WORKLOAD --seed S --rate R

Builds one rung of the ``ladder`` workload WORKLOAD at R invocations per
simulated second, runs it untraced to simulated time 0.6 s, then traces
it with ``sys.settrace`` opcode events until it has sampled 3 000 token
receipts and 2 000 originations:

* a *receipt* is a ``SecureGroupEndpoint._on_datagram`` call whose frame
  reaches ``DeliveryProtocol.on_token``, with everything it calls;
* an *origination* is a ``DeliveryProtocol._originate_token`` call, with
  everything it calls (the network fan-out of its frames included).

For each, it prints the bytecodes every Python function executed itself
and how often it was called, averaged per receipt or origination, and
the totals.  Builtins run no bytecode and make no Python call, so they
count only through the function that called them.

Simulated time moves host time nowhere here, so the counts repeat
exactly on one interpreter, where ``host_cal_per_inv`` spreads by a few
per cent: a receipt-path change can be read to the bytecode.  Another
Python version compiles other bytecode; compare tables made by one.
"""

import argparse
import gc
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: simulated seconds run untraced first: set-up, the first membership
#: and the open-loop ramp are not what a visit costs
AFTER = 0.6
RECEIPTS = 3000
ORIGINATIONS = 2000
#: scheduler events per traced slice (the sample is checked between slices)
SLICE_EVENTS = 200


def _name(code):
    return getattr(code, "co_qualname", code.co_name)


class VisitSampler:
    """Counts bytecodes and calls under sampled receipts and originations.

    ``install()`` puts the tracer in; every Python call is then looked
    at, but only the frames under a sampled root trace their opcodes.
    """

    def __init__(self, receipts, originations):
        from repro.multicast.delivery import DeliveryProtocol
        from repro.multicast.endpoint import SecureGroupEndpoint

        self._roots = {
            SecureGroupEndpoint._on_datagram.__code__: "receipt",
            DeliveryProtocol._originate_token.__code__: "origination",
        }
        self._on_token = DeliveryProtocol.on_token.__code__
        self.wanted = {"receipt": receipts, "origination": originations}
        #: kind -> how many are sampled
        self.sampled = {"receipt": 0, "origination": 0}
        #: kind -> {function: [bytecodes, calls]} summed over the samples
        self.totals = {"receipt": {}, "origination": {}}
        self._open = None  # (kind, root frame, counts) of the sample being taken
        self._token_seen = False

    @property
    def full(self):
        return all(self.sampled[kind] >= self.wanted[kind] for kind in self.wanted)

    def install(self):
        gc.disable()  # no finalizer may run inside a sample
        sys.settrace(self._call)

    def remove(self):
        sys.settrace(None)
        gc.enable()

    def _call(self, frame, event, arg):
        code = frame.f_code
        if self._open is None:
            kind = self._roots.get(code)
            if kind is None or self.sampled[kind] >= self.wanted[kind]:
                return None
            self._open = (kind, frame, {})
            self._token_seen = False
        elif code is self._on_token:
            self._token_seen = True
        counts = self._open[2]
        entry = counts.get(code)
        if entry is None:
            entry = counts[code] = [0, 0]
        entry[1] += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return self._local

    def _local(self, frame, event, arg):
        if self._open is None:
            return None  # a frame resumed after its sample closed
        if event == "opcode":
            self._open[2][frame.f_code][0] += 1
        elif event == "return" and frame is self._open[1]:
            kind, _, counts = self._open
            self._open = None
            if kind == "origination" or self._token_seen:
                self.sampled[kind] += 1
                totals = self.totals[kind]
                for code, (ops, calls) in counts.items():
                    total = totals.setdefault(_name(code), [0, 0])
                    total[0] += ops
                    total[1] += calls
        return self._local

    def table(self):
        """The per-receipt and per-origination tables, as text."""
        lines = []
        for kind, title in (("receipt", "token receipt"), ("origination", "origination")):
            count = self.sampled[kind]
            rows = sorted(self.totals[kind].items(), key=lambda item: (-item[1][0], item[0]))
            ops = sum(row[0] for _, row in rows)
            calls = sum(row[1] for _, row in rows)
            lines.append("per %s (%d sampled): %.1f bytecodes, %.2f Python calls"
                         % (title, count, ops / max(count, 1), calls / max(count, 1)))
            lines.append("  %9s %7s  %s" % ("bytecodes", "calls", "function"))
            for name, (ops, calls) in rows:
                lines.append("  %9.1f %7.2f  %s" % (ops / count, calls / count, name))
        return "\n".join(lines)


def sample(step, receipts=RECEIPTS, originations=ORIGINATIONS):
    """Trace ``step()`` calls until both samples are full or ``step()``
    returns false (the run is over); returns the :class:`VisitSampler`."""
    sampler = VisitSampler(receipts, originations)
    sampler.install()
    try:
        while not sampler.full and step():
            pass
    finally:
        sampler.remove()
    return sampler


def main(argv):
    parser = argparse.ArgumentParser(prog="python3 tools/visit_cost.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rate", type=int, required=True)
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from ladder.workloads import WORKLOADS, Rung

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r (one of %s)" % (args.workload, ", ".join(WORKLOADS)))
    rung = Rung(WORKLOADS[args.workload], args.rate, args.seed)
    system = rung.deployment.system
    scheduler = system.scheduler
    system.run(until=AFTER)

    def step():
        executed = scheduler.events_executed
        system.run(until=rung.until, max_events=SLICE_EVENTS)
        return scheduler.events_executed > executed

    sampler = sample(step)
    print("%s, seed %d, %g inv/s, sampled from t = %g s, Python %s"
          % (args.workload, args.seed, args.rate, AFTER, sys.version.split()[0]))
    print(sampler.table())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
