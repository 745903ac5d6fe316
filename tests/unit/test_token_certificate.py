"""Unit tests for the TokenCertificate batch-signature frame."""

import random

from repro.crypto.costmodel import CryptoCostModel
from repro.crypto.keystore import KeyStore
from repro.multicast.messages import FRAME_CERTIFICATE, decode_frame
from repro.multicast.token import MAX_CERT_SPAN, TokenCertificate


def make_cert(first_visit=7, count=3, signer_id=2, ring_id=5, signature=0):
    digests = [bytes([index] * 16) for index in range(count)]
    return TokenCertificate(
        signer_id=signer_id,
        ring_id=ring_id,
        first_visit=first_visit,
        digests=digests,
        signature=signature,
    )


def test_span_accessors():
    cert = make_cert(first_visit=7, count=3)
    assert cert.last_visit == 9
    assert list(cert.entries()) == [
        (7, bytes([0] * 16)),
        (8, bytes([1] * 16)),
        (9, bytes([2] * 16)),
    ]


def test_encode_decode_roundtrip():
    cert = make_cert(signature=123456789)
    raw = cert.encode()
    assert raw[0] == FRAME_CERTIFICATE
    decoded = TokenCertificate.decode(raw)
    assert decoded.signer_id == cert.signer_id
    assert decoded.ring_id == cert.ring_id
    assert decoded.first_visit == cert.first_visit
    assert decoded.digests == cert.digests
    assert decoded.signature == cert.signature
    assert decoded.signable_bytes() == cert.signable_bytes()


def test_decode_frame_dispatches_certificates():
    cert = make_cert()
    decoded = decode_frame(cert.encode())
    assert isinstance(decoded, TokenCertificate)
    assert decoded.first_visit == cert.first_visit


def test_signature_not_in_signable_bytes():
    unsigned = make_cert(signature=0)
    signed = make_cert(signature=987654321)
    assert unsigned.signable_bytes() == signed.signable_bytes()
    assert unsigned.encode() != signed.encode()


def test_well_formed():
    members = (0, 1, 2)
    assert make_cert(signer_id=2).well_formed(members)
    assert not make_cert(signer_id=9).well_formed(members)
    assert not make_cert(count=0, signer_id=1).well_formed(members)
    assert not make_cert(first_visit=0, signer_id=1).well_formed(members)
    oversize = TokenCertificate(
        signer_id=1,
        ring_id=5,
        first_visit=1,
        digests=[b"\x00" * 16] * (MAX_CERT_SPAN + 1),
    )
    assert not oversize.well_formed(members)


def test_forensic_summary():
    cert = make_cert(first_visit=4, count=2, signer_id=1)
    assert cert.forensic_summary() == {
        "signer": 1,
        "first_visit": 4,
        "last_visit": 5,
        "count": 2,
    }


class _StubProcessor:
    def __init__(self, proc_id):
        self.proc_id = proc_id
        self.charged = 0.0

    def charge(self, cost, label, priority=False):
        self.charged += cost


def test_batch_signature_verifies_and_binds_content():
    keystore = KeyStore(random.Random(3), modulus_bits=256)
    cost_model = CryptoCostModel(modulus_bits=256)
    signing = keystore.signing_service(_StubProcessor(0), cost_model)
    verifier = keystore.signing_service(_StubProcessor(1), cost_model)
    cert = make_cert(signer_id=0)
    cert.signature = signing.sign_batch(
        cert.signable_bytes(), batch_size=len(cert.digests)
    )
    assert verifier.verify_batch(
        0, cert.signable_bytes(), cert.signature, batch_size=len(cert.digests)
    )
    # tampering with any vouched digest invalidates the one signature
    cert.digests[1] = b"\xff" * 16
    assert not verifier.verify_batch(
        0, cert.signable_bytes(), cert.signature, batch_size=len(cert.digests)
    )


def test_batch_sign_cost_grows_sublinearly():
    cost_model = CryptoCostModel(modulus_bits=256)
    single = cost_model.batch_sign_cost(1)
    batched = cost_model.batch_sign_cost(32)
    # one RSA op either way; only the marginal digest work grows
    assert batched > single
    assert batched < 2 * single
    assert cost_model.batch_verify_cost(32) < 2 * cost_model.batch_verify_cost(1)
