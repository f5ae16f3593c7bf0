"""STS-style temporary credentials for the object store.

Mirrors the cloud-provider temporary-credential systems (AWS STS, Azure
SAS, GCP downscoped tokens) that Unity Catalog's credential vending builds
on: a *root* credential holder (UC itself) can mint short-lived tokens
scoped to a path prefix and an access level, and the storage layer
enforces those scopes on every request.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass

from repro.clock import Clock, WallClock
from repro.cloudstore.object_store import StoragePath
from repro.errors import CredentialError


class AccessLevel(enum.Enum):
    """Access levels a temporary credential can grant.

    ``READ_WRITE`` implies ``READ``; neither implies the ability to mint
    further credentials (only the issuer's root secret can do that).
    """

    READ = "READ"
    READ_WRITE = "READ_WRITE"

    def allows(self, other: "AccessLevel") -> bool:
        if self is AccessLevel.READ_WRITE:
            return True
        return other is AccessLevel.READ


@dataclass(frozen=True)
class TemporaryCredential:
    """A downscoped, expiring storage token.

    Immutable by design; the token string is the bearer secret that the
    storage layer validates. ``scope`` is the path prefix the token can
    touch and ``level`` the maximum operation class.
    """

    token: str
    scope: StoragePath
    level: AccessLevel
    expires_at: float

    def permits(self, path: StoragePath, level: AccessLevel, now: float) -> bool:
        """Check scope, level, and expiry for one storage operation."""
        if now >= self.expires_at:
            return False
        if not self.level.allows(level):
            return False
        return self.scope.contains(path)


class StsTokenIssuer:
    """Mints and validates temporary credentials.

    In the real system this is the cloud provider; UC is configured (via a
    *storage credential* securable) with the root authority to call it.
    Only holders of the issuer's ``root_secret`` may mint tokens — the
    catalog keeps that secret, clients never see it. The secret is
    created on first use, so a process that never vends pays nothing
    for the CSPRNG (``secrets`` pulls in OpenSSL).
    """

    DEFAULT_TTL_SECONDS = 15 * 60  # "valid for tens of minutes" (paper, 4.3.1)

    def __init__(self, clock: Clock | None = None, faults=None, retrier=None):
        """``faults`` (a :class:`~repro.faults.FaultInjector`) makes the
        minting RPC fail like a real cloud STS endpoint; ``retrier`` (a
        :class:`~repro.resilience.Retrier`) makes :meth:`mint` absorb
        those transients with clock-charged backoff."""
        self._clock = clock or WallClock()
        self._root_secret: str | None = None
        self._lock = threading.Lock()
        self._tokens: dict[str, TemporaryCredential] = {}
        self._faults = faults
        self._retrier = retrier
        self.minted_count = 0
        self.validated_count = 0
        self.denied_count = 0

    @property
    def root_secret(self) -> str:
        with self._lock:
            if self._root_secret is None:
                import secrets

                self._root_secret = secrets.token_hex(16)
            return self._root_secret

    def mint(
        self,
        root_secret: str,
        scope: StoragePath,
        level: AccessLevel,
        ttl_seconds: float | None = None,
    ) -> TemporaryCredential:
        """Mint a token scoped to ``scope`` with the given access level.

        Minting is an RPC to the cloud provider in production, so it is
        fault-injectable and (when a retrier is attached) retried."""
        if root_secret != self.root_secret:
            raise CredentialError("invalid root credential")
        ttl = self.DEFAULT_TTL_SECONDS if ttl_seconds is None else ttl_seconds
        if ttl <= 0:
            raise CredentialError("ttl must be positive")
        if self._retrier is not None:
            return self._retrier.call(lambda: self._mint_once(scope, level, ttl))
        return self._mint_once(scope, level, ttl)

    def _mint_once(
        self, scope: StoragePath, level: AccessLevel, ttl: float
    ) -> TemporaryCredential:
        import secrets

        if self._faults is not None:
            self._faults.raise_for("sts.mint", scope)
        credential = TemporaryCredential(
            token=secrets.token_hex(16),
            scope=scope,
            level=level,
            expires_at=self._clock.now() + ttl,
        )
        self._tokens[credential.token] = credential
        self.minted_count += 1
        return credential

    def validate(self, token: str, path: StoragePath, level: AccessLevel) -> None:
        """Raise :class:`CredentialError` unless ``token`` permits the op."""
        self.validated_count += 1
        credential = self._tokens.get(token)
        if credential is None:
            self.denied_count += 1
            raise CredentialError("unknown token")
        if not credential.permits(path, level, self._clock.now()):
            self.denied_count += 1
            raise CredentialError(
                f"token does not permit {level.value} on {path.url()}"
            )

    def revoke(self, token: str) -> None:
        """Drop a token immediately (simulates credential invalidation)."""
        self._tokens.pop(token, None)

    def purge_expired(self) -> int:
        """Remove expired tokens; returns how many were dropped."""
        now = self._clock.now()
        expired = [t for t, c in self._tokens.items() if c.expires_at <= now]
        for token in expired:
            del self._tokens[token]
        return len(expired)
