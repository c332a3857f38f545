#!/usr/bin/env python3
"""Secured V2X: certificates, signed DENMs, pseudonym change.

Stands up a small PKI (root CA -> authorization authority ->
authorization tickets), runs two ITS stations with security entities
on the simulated channel, and shows

* a signed DENM verifying end to end (with the ECDSA CPU cost visible
  in the delivery latency),
* a tampered message being rejected,
* a pseudonym change unlinking the sender's identity.

Run:  python examples/secured_v2x.py
"""

import dataclasses

import numpy as np

from repro.geonet import BtpPort, GeoNetRouter, LocalFrame
from repro.net import NetworkInterface, WirelessMedium
from repro.net.propagation import LinkBudget, LogDistancePathLoss
from repro.security import MessageSigner, MessageVerifier, RootCa
from repro.security.certificates import TrustStore
from repro.security.entity import SecurityEntity
from repro.security.pseudonyms import PseudonymPolicy
from repro.sim import Simulator

FRAME = LocalFrame()


def main() -> None:
    rng = np.random.default_rng(11)
    print("== PKI ==")
    root = RootCa(rng)
    authority = root.issue_authority(rng, "aa-porto")
    print(f"root CA          : {root.certificate.subject} "
          f"({root.certificate.certificate_id})")
    print(f"authorization AA : {authority.certificate.subject}, issued "
          f"by {authority.certificate.issuer_id}")

    store = TrustStore(root.certificate, root.keys)
    store.add_authority(authority, now=0.0)

    print("\n== Signed messaging on the channel ==")
    sim = Simulator()
    medium = WirelessMedium(sim, 1,
                            LinkBudget(path_loss=LogDistancePathLoss()))
    routers = []
    for index, x in enumerate((0.0, 5.0)):
        nic = NetworkInterface(sim, medium, f"st{index}",
                               lambda x=x: (x, 0.0),
                               rng=np.random.default_rng(2 + index))
        entity = SecurityEntity(
            sim, authority, store, np.random.default_rng(20 + index),
            policy=PseudonymPolicy(min_hold_time=10.0,
                                   change_distance=0.0))
        routers.append(GeoNetRouter(
            sim, nic, position=lambda x=x: FRAME.to_geo(x, 0.0),
            rng=np.random.default_rng(40 + index), security=entity))
    sender, receiver = routers

    deliveries = []
    receiver.btp.register(
        BtpPort.DENM, lambda p: deliveries.append((sim.now, p)))
    sim.schedule(0.010, lambda: sender.send_shb(b"collision-risk",
                                                BtpPort.DENM))
    sim.run_until(1.0)
    sent_at = 0.010
    print(f"signed DENM delivered after "
          f"{(deliveries[0][0] - sent_at) * 1000:.2f} ms "
          f"(sign ~0.8 ms + air ~0.3 ms + verify ~1.6 ms)")
    print(f"receiver verified: {receiver.security.verifier.verified}, "
          f"rejected: {receiver.security.verifier.rejected}")

    print("\n== Tampering ==")
    ticket = authority.issue_ticket(rng, now=0.0)
    signer = MessageSigner(ticket)
    verifier = MessageVerifier(store)
    message = signer.sign(b"brake now", now=0.0)
    verifier.verify(message, now=0.1)
    forged = dataclasses.replace(message, payload=b"speed up")
    try:
        verifier.verify(forged, now=0.2)
        raise AssertionError("forgery must not verify")
    except Exception as err:  # SecurityError
        print(f"forged payload rejected: {err}")

    print("\n== Pseudonym change ==")
    entity = sender.security
    before_id = entity.pseudonyms.station_id
    before_cert = entity.pseudonyms.current.certificate.certificate_id
    sim.run_until(15.0)  # past the minimum hold time
    new_station = entity.maybe_rotate(odometer=100.0)
    after_cert = entity.pseudonyms.current.certificate.certificate_id
    print(f"station id {before_id} -> {new_station}")
    print(f"certificate {before_cert} -> {after_cert}")
    assert new_station is not None and after_cert != before_cert
    print("transmissions before/after the change are unlinkable.")


if __name__ == "__main__":
    main()
