"""Host time by layer, measured from outside the program.

Two instruments: ``host_shares`` buckets a ``cProfile`` run by
``repro.<package>`` so the shares sum to 1, and ``micro`` times direct
calls to the layers' public codec and crypto functions on seeded,
never-repeated inputs.  End-to-end numbers never come from here.
"""

import pstats
import random
import statistics
import time

from repro import perf
from repro.core.groups import ObjectGroupTable
from repro.core.voting import Voter
from repro.crypto.md4 import md4_digest
from repro.crypto.rsa import generate_keypair
from repro.multicast.messages import RegularMessage, decode_frame
from repro.multicast.token import Token
from repro.orb.cdr import CdrDecoder, CdrEncoder
from repro.orb.giop import RequestMessage, decode_message

#: the packages under ``src/repro`` that run inside ``run()``
LAYERS = ("sim", "crypto", "orb", "multicast", "core", "cluster", "wan", "obs")


def _layer_of(filename):
    at = filename.rfind("/repro/")
    if at < 0:
        return None
    package = filename[at + len("/repro/"):].split("/", 1)[0]
    return package if package in LAYERS else None


def host_shares(profile):
    """{layer: share of profiled self time}, ``other`` included; sums to 1.

    Time inside C functions, and inside the ``repro.perf`` memo tables
    every layer shares, is charged to the calling package through the
    profiler's callers table.
    """
    seconds = dict.fromkeys(LAYERS + ("other",), 0.0)
    for (filename, _line, _name), (_cc, _nc, self_time, _ct, callers) in pstats.Stats(
        profile
    ).stats.items():
        layer = _layer_of(filename)
        if layer is not None:
            seconds[layer] += self_time
        elif filename == "~" or filename.endswith("/repro/perf.py"):
            for (caller_file, _l, _n), (_c, _n2, caller_time, _t) in callers.items():
                seconds[_layer_of(caller_file) or "other"] += caller_time
                self_time -= caller_time
            seconds["other"] += self_time
        else:
            seconds["other"] += self_time
    total = sum(seconds.values())
    return {layer: value / total for layer, value in seconds.items()}


def _time_us(fn, inputs, before=perf.clear_caches):
    """Median over five repeats of the mean microseconds of ``fn(x)``.

    ``before`` runs ahead of each repeat; by default it clears the memo
    tables, so every call computes.
    """
    samples = []
    for _ in range(5):
        before()
        begin = time.process_time()
        for x in inputs:
            fn(x)
        samples.append(1e6 * (time.process_time() - begin) / len(inputs))
    return statistics.median(samples)


def micro(seed):
    """{per-layer ``*_us`` metric: microseconds per call}."""
    rng = random.Random(seed)
    small = [rng.randbytes(64) for _ in range(2000)]
    large = [rng.randbytes(4096) for _ in range(100)]
    digests = [rng.randbytes(16) for _ in range(300)]
    keypair = generate_keypair(rng, 300)
    signed = [(d, keypair.sign(d)) for d in digests]
    octets_4k = [CdrEncoder().write("octets", data).getvalue() for data in large]
    requests = [(i, body) for i, body in enumerate(small[:1000])]
    frames = [
        RegularMessage(3, 1, seq, "target", body).encode()
        for seq, body in enumerate(small[:1000])
    ]
    tokens = [
        Token(
            sender_id=2, ring_id=1, visit=visit, seq=6 * visit, aru=6 * visit, successor=3,
            message_digest_list=[(6 * visit + k, rng.randbytes(16)) for k in range(6)],
            prev_token_digest=rng.randbytes(16),
        )
        for visit in range(500)
    ]
    table = ObjectGroupTable()
    table.create("driver", [3, 4, 5])
    voters = []
    copies = [(op, sender, body) for op, body in enumerate(small[:600]) for sender in (3, 4, 5)]

    def giop_codec(request):
        decode_message(RequestMessage(request[0], b"target", "push", request[1], False).encode())

    return {
        "crypto.md4_us_64b": _time_us(md4_digest, small),
        "crypto.md4_us_4k": _time_us(md4_digest, large),
        "crypto.rsa_sign_us": _time_us(keypair.sign, digests),
        "crypto.rsa_verify_us": _time_us(lambda ds: keypair.public.verify(*ds), signed),
        "orb.cdr_encode_us_4k": _time_us(
            lambda data: CdrEncoder().write("octets", data).getvalue(), large
        ),
        "orb.cdr_decode_us_4k": _time_us(lambda raw: CdrDecoder(raw).read("octets"), octets_4k),
        "orb.giop_request_codec_us_64b": _time_us(giop_codec, requests),
        "multicast.frame_decode_us": _time_us(decode_frame, frames),
        "multicast.token_codec_us": _time_us(lambda token: decode_frame(token.encode()), tokens),
        # a voter remembers the operations it has decided: a new one per repeat
        "core.voter_add_copy_us": _time_us(
            lambda copy: voters[-1].add_copy("driver", *copy), copies,
            before=lambda: (perf.clear_caches(), voters.append(Voter("target", table, md4_digest))),
        ),
    }
