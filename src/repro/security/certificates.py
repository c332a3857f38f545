"""The ITS credential chain: Root CA -> AA -> Authorization Tickets.

Signatures are simulated: a key pair is a random 128-bit secret and
its public identifier; "signing" binds (payload, secret) through a
SHA-256 digest that anyone holding the *public* identifier can check
via the issuer-side oracle embedded in the pair.  Within the
simulation this has the properties that matter -- signatures verify
only with the right key, any payload or key change breaks them --
without pulling in real cryptography.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np


class SecurityError(Exception):
    """Raised on invalid credentials or failed verification."""


#: The simulation's stand-in for asymmetric verification: at key
#: generation the (public_id -> secret) binding is recorded here, and
#: :func:`verify_with_public_id` consults it.  Within the simulation
#: this preserves the properties that matter: signatures verify only
#: under the matching public_id, any payload/signature tampering
#: fails, and nobody can sign for a public_id they did not generate.
_PUBLIC_BINDINGS: dict = {}


def verify_with_public_id(public_id: str, payload: bytes,
                          signature: str) -> bool:
    """Public-side signature check (the verification oracle)."""
    secret = _PUBLIC_BINDINGS.get(public_id)
    if secret is None:
        return False
    expected = hashlib.sha256(secret.encode() + payload).hexdigest()
    return expected == signature


@dataclasses.dataclass(frozen=True)
class KeyPair:
    """A simulated asymmetric key pair.

    ``public_id`` identifies the key; ``secret`` is required to
    produce signatures (``SHA256(secret || payload)``).  Receivers
    check signatures through :func:`verify_with_public_id`, which
    plays the role of public-key verification.
    """

    public_id: str
    secret: str

    @staticmethod
    def generate(rng: np.random.Generator) -> "KeyPair":
        """A fresh key pair from *rng* (binding registered)."""
        secret = rng.bytes(16).hex()
        public_id = hashlib.sha256(
            f"pub:{secret}".encode()).hexdigest()[:16]
        _PUBLIC_BINDINGS[public_id] = secret
        return KeyPair(public_id=public_id, secret=secret)

    def sign(self, payload: bytes) -> str:
        """Produce a signature over *payload*."""
        return hashlib.sha256(
            self.secret.encode() + payload).hexdigest()

    def verify(self, payload: bytes, signature: str) -> bool:
        """Check *signature* over *payload* against this key."""
        return self.sign(payload) == signature


@dataclasses.dataclass(frozen=True)
class Certificate:
    """A credential binding a subject's key to an issuer's signature."""

    subject: str
    public_id: str
    issuer_id: str            # certificate id of the issuer ("" = root)
    valid_from: float
    valid_until: float
    signature: str
    certificate_id: str

    def is_valid_at(self, now: float) -> bool:
        """Whether the validity period covers *now*."""
        return self.valid_from <= now <= self.valid_until

    def tbs(self) -> bytes:
        """The to-be-signed portion."""
        return (f"{self.subject}|{self.public_id}|{self.issuer_id}|"
                f"{self.valid_from}|{self.valid_until}").encode()


def _certificate_id(tbs: bytes, signature: str) -> str:
    return hashlib.sha256(tbs + signature.encode()).hexdigest()[:16]


class RootCa:
    """The trust anchor.  Self-signed; issues AA certificates."""

    def __init__(self, rng: np.random.Generator, name: str = "root-ca",
                 valid_until: float = 1e9):
        self.name = name
        self.keys = KeyPair.generate(rng)
        tbs = (f"{name}|{self.keys.public_id}||0|{valid_until}").encode()
        signature = self.keys.sign(tbs)
        self.certificate = Certificate(
            subject=name,
            public_id=self.keys.public_id,
            issuer_id="",
            valid_from=0.0,
            valid_until=valid_until,
            signature=signature,
            certificate_id=_certificate_id(tbs, signature),
        )

    def issue_authority(self, rng: np.random.Generator, name: str,
                        valid_from: float = 0.0,
                        valid_until: float = 1e9,
                        ) -> "AuthorizationAuthority":
        """Create an Authorization Authority under this root."""
        keys = KeyPair.generate(rng)
        cert = self._issue(name, keys.public_id, valid_from, valid_until)
        return AuthorizationAuthority(name=name, keys=keys,
                                      certificate=cert, root=self)

    def _issue(self, subject: str, public_id: str, valid_from: float,
               valid_until: float) -> Certificate:
        cert = Certificate(
            subject=subject, public_id=public_id,
            issuer_id=self.certificate.certificate_id,
            valid_from=valid_from, valid_until=valid_until,
            signature="", certificate_id="")
        signature = self.keys.sign(cert.tbs())
        return dataclasses.replace(
            cert, signature=signature,
            certificate_id=_certificate_id(cert.tbs(), signature))


@dataclasses.dataclass
class AuthorizationAuthority:
    """Issues short-lived pseudonym certificates (ATs) to stations."""

    name: str
    keys: KeyPair
    certificate: Certificate
    root: RootCa
    issued: int = 0

    def issue_ticket(self, rng: np.random.Generator, now: float,
                     lifetime: float = 3600.0,
                     ) -> "AuthorizationTicket":
        """One fresh Authorization Ticket valid from *now*."""
        keys = KeyPair.generate(rng)
        self.issued += 1
        subject = f"AT-{self.name}-{self.issued}"
        cert = Certificate(
            subject=subject, public_id=keys.public_id,
            issuer_id=self.certificate.certificate_id,
            valid_from=now, valid_until=now + lifetime,
            signature="", certificate_id="")
        signature = self.keys.sign(cert.tbs())
        cert = dataclasses.replace(
            cert, signature=signature,
            certificate_id=_certificate_id(cert.tbs(), signature))
        return AuthorizationTicket(keys=keys, certificate=cert)


@dataclasses.dataclass(frozen=True)
class AuthorizationTicket:
    """A pseudonym credential: key pair + its certificate."""

    keys: KeyPair
    certificate: Certificate


class TrustStore:
    """Receiver-side chain validation rooted at a Root CA cert."""

    def __init__(self, root_certificate: Certificate,
                 root_keys_public: KeyPair):
        # The verifier holds the root's *public* side; in this
        # simulation the KeyPair doubles as the verification oracle.
        self.root_certificate = root_certificate
        self._root_keys = root_keys_public
        self._authority_keys: dict = {}

    def add_authority(self, authority: AuthorizationAuthority,
                      now: float) -> None:
        """Validate and remember an AA certificate."""
        cert = authority.certificate
        if not cert.is_valid_at(now):
            raise SecurityError(f"authority cert {cert.subject} expired")
        if cert.issuer_id != self.root_certificate.certificate_id:
            raise SecurityError(
                f"authority {cert.subject} not issued by our root")
        if not self._root_keys.verify(cert.tbs(), cert.signature):
            raise SecurityError(
                f"authority {cert.subject}: bad root signature")
        self._authority_keys[cert.certificate_id] = authority.keys

    def validate_ticket(self, certificate: Certificate,
                        now: float) -> None:
        """Raise :class:`SecurityError` unless the AT chain is good."""
        if not certificate.is_valid_at(now):
            raise SecurityError(
                f"ticket {certificate.subject} outside validity")
        issuer_keys = self._authority_keys.get(certificate.issuer_id)
        if issuer_keys is None:
            raise SecurityError(
                f"ticket {certificate.subject}: unknown issuer")
        if not issuer_keys.verify(certificate.tbs(),
                                  certificate.signature):
            raise SecurityError(
                f"ticket {certificate.subject}: bad issuer signature")
