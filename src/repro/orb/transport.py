"""Pluggable ORB transports.

The ORB hands encoded GIOP frames to a :class:`Transport`; what happens
next is the point of variation the Immune system exploits:

* :class:`DirectTransport` delivers frames point-to-point over the
  simulated LAN — the paper's *case 1* baseline, where IIOP rides on
  plain TCP/IP;
* :class:`repro.orb.interceptor.ImmuneInterceptor` instead diverts the
  frames to the Replication Manager, without the ORB or the
  application noticing.

Incoming datagrams may contain several concatenated GIOP frames (the
ORB batches one-way requests); framing is recovered from each GIOP
header's size field.  Frames that fail to parse — e.g. corrupted in
transit — are dropped, as a TCP checksum failure would drop a segment.
"""

from repro.orb.giop import GiopError


class Transport:
    """Interface between an ORB and the outside world."""

    def attach(self, orb):
        """Bind to the ORB that will receive incoming frames."""
        raise NotImplementedError

    def send_frames(self, reference, frames, source_key):
        """Convey encoded GIOP ``frames`` towards ``reference``.

        ``source_key`` identifies the local object (if any) issuing the
        frames; the direct transport ignores it, the Immune interceptor
        uses it to attribute invocations to a client replica.
        """
        raise NotImplementedError


def split_frames(data):
    """Split concatenated GIOP frames; raises GiopError on bad framing."""
    frames = []
    offset = 0
    while offset < len(data):
        if offset + 12 > len(data):
            raise GiopError("trailing bytes too short for a GIOP header")
        size = int.from_bytes(data[offset + 8 : offset + 12], "little")
        end = offset + 12 + size
        if end > len(data):
            raise GiopError("GIOP frame extends past datagram end")
        frames.append(data[offset:end])
        offset = end
    return frames


class DirectTransport(Transport):
    """Point-to-point IIOP over the simulated LAN (unreplicated baseline)."""

    PORT = "iiop"

    def __init__(self, network):
        self._network = network
        self._orb = None

    def attach(self, orb):
        self._orb = orb
        orb.processor.register_handler(self.PORT, self._on_datagram)

    def send_frames(self, reference, frames, source_key):
        if reference.host is None:
            raise GiopError(
                "direct transport needs a host in the reference: %r" % (reference,)
            )
        self._network.unicast(
            self._orb.processor.proc_id, reference.host, self.PORT, b"".join(frames)
        )

    def _reply_sink_for(self, src_host):
        def send_reply(reply_frame):
            self._network.unicast(
                self._orb.processor.proc_id, src_host, self.PORT, reply_frame
            )

        return send_reply

    def _on_datagram(self, datagram):
        try:
            frames = split_frames(datagram.payload)
        except GiopError:
            return  # corrupted datagram: dropped like a failed checksum
        sink = self._reply_sink_for(datagram.src)
        for frame in frames:
            self._orb.deliver_frame(frame, sink)

