"""Tests for the ITS security layer: certificates, signing, pseudonyms,
and the secured GeoNetworking path."""

import numpy as np
import pytest

from repro.geonet import BtpPort, GeoNetRouter, LocalFrame
from repro.net import NetworkInterface, WirelessMedium
from repro.net.propagation import LinkBudget, LogDistancePathLoss
from repro.security import (
    CryptoCostModel,
    KeyPair,
    MessageSigner,
    MessageVerifier,
    PseudonymManager,
    PseudonymPolicy,
    RootCa,
    SecurityError,
)
from repro.security.certificates import TrustStore, verify_with_public_id
from repro.security.entity import SecurityEntity
from repro.sim import Simulator

FRAME = LocalFrame()


def make_pki(seed=1):
    rng = np.random.default_rng(seed)
    root = RootCa(rng)
    authority = root.issue_authority(rng, "aa-1")
    store = TrustStore(root.certificate, root.keys)
    store.add_authority(authority, now=0.0)
    return rng, root, authority, store


# ---------------------------------------------------------------------------
# Key pairs and certificates
# ---------------------------------------------------------------------------


class TestKeys:
    def test_sign_verify_round_trip(self):
        keys = KeyPair.generate(np.random.default_rng(1))
        signature = keys.sign(b"hello")
        assert keys.verify(b"hello", signature)

    def test_tampered_payload_fails(self):
        keys = KeyPair.generate(np.random.default_rng(1))
        signature = keys.sign(b"hello")
        assert not keys.verify(b"hellO", signature)

    def test_wrong_key_fails(self):
        a = KeyPair.generate(np.random.default_rng(1))
        b = KeyPair.generate(np.random.default_rng(2))
        assert not b.verify(b"x", a.sign(b"x"))

    def test_public_verification_oracle(self):
        keys = KeyPair.generate(np.random.default_rng(1))
        signature = keys.sign(b"payload")
        assert verify_with_public_id(keys.public_id, b"payload",
                                     signature)
        assert not verify_with_public_id(keys.public_id, b"other",
                                         signature)
        assert not verify_with_public_id("unregistered", b"payload",
                                         signature)


class TestCertificateChain:
    def test_ticket_chain_validates(self):
        rng, root, authority, store = make_pki()
        ticket = authority.issue_ticket(rng, now=10.0)
        store.validate_ticket(ticket.certificate, now=20.0)  # no raise

    def test_expired_ticket_rejected(self):
        rng, root, authority, store = make_pki()
        ticket = authority.issue_ticket(rng, now=0.0, lifetime=100.0)
        with pytest.raises(SecurityError, match="validity"):
            store.validate_ticket(ticket.certificate, now=200.0)

    def test_foreign_authority_rejected(self):
        rng, root, authority, store = make_pki()
        other_rng = np.random.default_rng(99)
        other_root = RootCa(other_rng)
        other_authority = other_root.issue_authority(other_rng, "evil")
        with pytest.raises(SecurityError, match="root"):
            store.add_authority(other_authority, now=0.0)

    def test_unknown_issuer_rejected(self):
        rng, root, authority, store = make_pki()
        # A second AA under the same root, never added to the store.
        hidden = root.issue_authority(rng, "aa-2")
        ticket = hidden.issue_ticket(rng, now=0.0)
        with pytest.raises(SecurityError, match="unknown issuer"):
            store.validate_ticket(ticket.certificate, now=1.0)

    def test_validity_window(self):
        rng, root, authority, store = make_pki()
        ticket = authority.issue_ticket(rng, now=50.0, lifetime=10.0)
        assert ticket.certificate.is_valid_at(55.0)
        assert not ticket.certificate.is_valid_at(49.0)
        assert not ticket.certificate.is_valid_at(61.0)


# ---------------------------------------------------------------------------
# Secured messages
# ---------------------------------------------------------------------------


class TestSignerVerifier:
    def test_sign_verify_round_trip(self):
        rng, root, authority, store = make_pki()
        ticket = authority.issue_ticket(rng, now=0.0)
        signer = MessageSigner(ticket)
        verifier = MessageVerifier(store)
        message = signer.sign(b"CAM-bytes", now=0.0)
        assert verifier.verify(message, now=0.1) == b"CAM-bytes"
        assert verifier.verified == 1

    def test_first_message_carries_certificate(self):
        rng, root, authority, store = make_pki()
        signer = MessageSigner(authority.issue_ticket(rng, now=0.0),
                               certificate_period=1.0)
        first = signer.sign(b"a", now=0.0)
        second = signer.sign(b"b", now=0.1)
        third = signer.sign(b"c", now=1.2)
        assert first.signer_info.kind == "certificate"
        assert second.signer_info.kind == "digest"
        assert third.signer_info.kind == "certificate"  # period elapsed

    def test_digest_smaller_than_certificate(self):
        rng, root, authority, store = make_pki()
        signer = MessageSigner(authority.issue_ticket(rng, now=0.0))
        with_cert = signer.sign(b"a", now=0.0)
        with_digest = signer.sign(b"b", now=0.1)
        assert with_digest.wire_overhead < with_cert.wire_overhead

    def test_digest_before_certificate_defers(self):
        rng, root, authority, store = make_pki()
        signer = MessageSigner(authority.issue_ticket(rng, now=0.0))
        verifier = MessageVerifier(store)
        signer.sign(b"a", now=0.0)           # cert message, lost
        digest_msg = signer.sign(b"b", now=0.1)
        with pytest.raises(SecurityError, match="unknown signer"):
            verifier.verify(digest_msg, now=0.2)
        assert verifier.unknown_signer == 1

    def test_digest_after_learning_certificate(self):
        rng, root, authority, store = make_pki()
        signer = MessageSigner(authority.issue_ticket(rng, now=0.0))
        verifier = MessageVerifier(store)
        cert_msg = signer.sign(b"a", now=0.0)
        digest_msg = signer.sign(b"b", now=0.1)
        verifier.verify(cert_msg, now=0.1)
        assert verifier.verify(digest_msg, now=0.2) == b"b"

    def test_tampered_payload_rejected(self):
        import dataclasses

        rng, root, authority, store = make_pki()
        signer = MessageSigner(authority.issue_ticket(rng, now=0.0))
        verifier = MessageVerifier(store)
        message = signer.sign(b"brake", now=0.0)
        forged = dataclasses.replace(message, payload=b"speed")
        with pytest.raises(SecurityError, match="signature"):
            verifier.verify(forged, now=0.1)
        assert verifier.rejected == 1

    def test_crypto_cost_model(self):
        cost = CryptoCostModel()
        rng = np.random.default_rng(1)
        signs = [cost.sign_time(rng) for _ in range(200)]
        verifies = [cost.verify_time(rng) for _ in range(200)]
        assert 0.5e-3 < np.mean(signs) < 1.2e-3
        assert np.mean(verifies) > np.mean(signs)


# ---------------------------------------------------------------------------
# Pseudonyms
# ---------------------------------------------------------------------------


class TestPseudonyms:
    def make_manager(self, policy=None, seed=3):
        rng, root, authority, store = make_pki(seed)
        return PseudonymManager(authority, rng, now=0.0, policy=policy)

    def test_initial_ticket_available(self):
        manager = self.make_manager()
        assert manager.current is not None
        assert manager.pool_size > 0

    def test_no_change_before_hold_time(self):
        manager = self.make_manager(PseudonymPolicy(min_hold_time=300.0))
        assert manager.maybe_change(now=100.0, odometer=5000.0) is None

    def test_change_after_hold_and_distance(self):
        manager = self.make_manager(PseudonymPolicy(
            min_hold_time=10.0, change_distance=100.0))
        before = manager.current
        change = manager.maybe_change(now=20.0, odometer=150.0)
        assert change is not None
        ticket, station_id = change
        assert ticket is not before
        assert manager.changes == 1

    def test_distance_not_reached_no_change(self):
        manager = self.make_manager(PseudonymPolicy(
            min_hold_time=10.0, change_distance=100.0))
        assert manager.maybe_change(now=20.0, odometer=50.0) is None

    def test_station_id_rotates(self):
        manager = self.make_manager()
        before = manager.station_id
        manager.force_change(now=1.0)
        assert manager.station_id != before

    def test_pool_refills(self):
        manager = self.make_manager(PseudonymPolicy(
            min_hold_time=0.0, change_distance=0.0, refill_count=4,
            low_watermark=2))
        for step in range(20):
            manager.force_change(now=float(step))
        assert manager.changes == 20
        assert manager.pool_size >= 0


# ---------------------------------------------------------------------------
# Secured GeoNetworking path
# ---------------------------------------------------------------------------


def build_secured_pair(seed=5, tamper=False):
    sim = Simulator()
    rng, root, authority, store = make_pki(seed)
    medium = WirelessMedium(sim, seed,
                            LinkBudget(path_loss=LogDistancePathLoss()))
    routers = []
    for index, x in enumerate((0.0, 5.0)):
        nic = NetworkInterface(sim, medium, f"st{index}",
                               lambda x=x: (x, 0.0),
                               rng=np.random.default_rng(seed + index))
        entity = SecurityEntity(
            sim, authority, store, np.random.default_rng(seed + 10 + index))
        routers.append(GeoNetRouter(
            sim, nic, position=lambda x=x: FRAME.to_geo(x, 0.0),
            rng=np.random.default_rng(seed + 20 + index),
            security=entity))
    return sim, routers


class TestSecuredRouting:
    def test_signed_shb_delivered(self):
        sim, (a, b) = build_secured_pair()
        got = []
        b.btp.register(BtpPort.CAM, lambda p: got.append(p))
        sim.schedule(0.0, lambda: a.send_shb(b"cam", BtpPort.CAM))
        sim.run_until(1.0)
        assert got == [b"cam"]
        assert b.security.verifier.verified == 1

    def test_crypto_adds_latency(self):
        # Unsecured pair baseline vs secured pair.
        def latency(secured):
            sim = Simulator()
            rng, root, authority, store = make_pki(5)
            medium = WirelessMedium(
                sim, 5,
                LinkBudget(path_loss=LogDistancePathLoss()))
            routers = []
            for index, x in enumerate((0.0, 5.0)):
                nic = NetworkInterface(
                    sim, medium, f"st{index}", lambda x=x: (x, 0.0),
                    rng=np.random.default_rng(6 + index))
                entity = SecurityEntity(
                    sim, authority, store,
                    np.random.default_rng(16 + index)) if secured else None
                routers.append(GeoNetRouter(
                    sim, nic,
                    position=lambda x=x: FRAME.to_geo(x, 0.0),
                    rng=np.random.default_rng(26 + index),
                    security=entity))
            a, b = routers
            arrival = []
            b.btp.register(BtpPort.DENM,
                           lambda p: arrival.append(sim.now))
            sim.schedule(0.001, lambda: a.send_shb(b"denm", BtpPort.DENM))
            sim.run_until(1.0)
            return arrival[0] - 0.001

        plain = latency(secured=False)
        signed = latency(secured=True)
        # Sign (~0.8 ms) + verify (~1.6 ms) + bigger frame.
        assert signed > plain + 1.5e-3
        assert signed < plain + 6e-3

    def test_secured_frame_is_larger(self):
        sim, (a, b) = build_secured_pair()
        sizes = []
        b.nic.on_receive(lambda frame: sizes.append(frame.size))
        sim.schedule(0.0, lambda: a.send_shb(b"x" * 50, BtpPort.CAM))
        sim.run_until(1.0)
        plain_size = 36 + 4 + 50
        assert sizes[0] > plain_size + 60

    def test_receiver_without_security_still_delivers(self):
        # Mixed deployment: the receiver has no security entity and
        # accepts the payload without checking (real stacks may be
        # configured permissively during rollout).
        sim = Simulator()
        rng, root, authority, store = make_pki(7)
        medium = WirelessMedium(sim, 7,
                                LinkBudget(path_loss=LogDistancePathLoss()))
        nic_a = NetworkInterface(sim, medium, "a", lambda: (0.0, 0.0),
                                 rng=np.random.default_rng(8))
        nic_b = NetworkInterface(sim, medium, "b", lambda: (5.0, 0.0),
                                 rng=np.random.default_rng(9))
        a = GeoNetRouter(
            sim, nic_a, position=lambda: FRAME.to_geo(0, 0),
            security=SecurityEntity(sim, authority, store,
                                    np.random.default_rng(10)))
        b = GeoNetRouter(sim, nic_b,
                         position=lambda: FRAME.to_geo(5, 0))
        got = []
        b.btp.register(BtpPort.CAM, lambda p: got.append(p))
        sim.schedule(0.0, lambda: a.send_shb(b"cam", BtpPort.CAM))
        sim.run_until(1.0)
        assert got == [b"cam"]
