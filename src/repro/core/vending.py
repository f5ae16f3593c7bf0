"""Temporary credential vending (paper section 4.3.1).

Administrators grant storage access *exclusively to the catalog* (via
storage-credential and external-location securables); clients never hold
raw cloud credentials. After the service authorizes a request, the vendor
mints a short-lived token downscoped to exactly the asset's storage path
and the requested access level. Unexpired tokens are cached per
(asset, level) and reused, as the paper notes UC may do.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

from repro.clock import Clock
from repro.cloudstore.object_store import StoragePath
from repro.cloudstore.sts import AccessLevel, StsTokenIssuer, TemporaryCredential
from repro.core.cache.ttl import TtlCache
from repro.core.model.entity import Entity, SecurableKind
from repro.core.view import MetastoreView
from repro.errors import CredentialError, InvalidRequestError


@dataclass
class VendingStats:
    minted: int = 0
    cache_hits: int = 0


class CredentialVendor:
    """Mints downscoped temporary credentials for governed assets."""

    #: Vended tokens are valid for "tens of minutes".
    TOKEN_TTL_SECONDS = 15 * 60
    #: Cached tokens are reused only while they have comfortable validity
    #: left, so callers never receive an about-to-expire token.
    CACHE_TTL_SECONDS = 10 * 60

    def __init__(
        self,
        issuer: StsTokenIssuer,
        clock: Clock,
        rink_cache: Optional[TtlCache] = None,
        obs=None,
    ):
        """``rink_cache`` is an externally-owned token cache shared across
        service instances — the paper's RINK caching service, which lets
        vended tokens "survive restarts" of the catalog service.
        ``obs`` is the owning service's observability bundle."""
        self._issuer = issuer
        self._clock = clock
        self._cache: TtlCache[tuple[str, str], TemporaryCredential] = TtlCache(
            ttl_seconds=self.CACHE_TTL_SECONDS, clock=clock
        )
        self._rink = rink_cache
        self.stats = VendingStats()
        self._tracer = obs.tracer if obs is not None else None
        self._scope_segments = None
        if obs is not None:
            self._scope_segments = obs.metrics.histogram(
                "uc_credential_scope_segments",
                "Path depth of vended credential scopes.",
                buckets=(1, 2, 3, 4, 6, 8, 12, 16),
            ).labels()
            obs.metrics.register_collector(self._collect)

    def _collect(self):
        yield ("uc_credential_cache_entries", {"tier": "vendor"}, len(self._cache))
        yield ("uc_credential_cache_lookups_total", {"tier": "vendor"},
               self._cache.hits + self._cache.misses)

    def vend(
        self,
        view: MetastoreView,
        entity: Entity,
        level: AccessLevel,
    ) -> TemporaryCredential:
        """Mint (or reuse) a token scoped to ``entity``'s storage path.

        Authorization has already happened in the service; this method
        only locates the right root authority and downscopes.
        """
        if not entity.storage_path:
            raise InvalidRequestError(
                f"securable {entity.name!r} has no backing storage"
            )
        span = (
            self._tracer.span("uc.vend", asset=entity.name, level=level.value)
            if self._tracer is not None
            else nullcontext()
        )
        with span:
            cache_key = (entity.id, level.value)
            cached = self._cache.get(cache_key)
            if cached is None and self._rink is not None:
                cached = self._rink.get(cache_key)  # survives service restarts
            if cached is not None and cached.expires_at > self._clock.now() + 60:
                self.stats.cache_hits += 1
                return cached

            scope = StoragePath.parse(entity.storage_path)
            root_secret = self._root_secret_for(view, entity, scope)
            credential = self._issuer.mint(
                root_secret, scope, level, ttl_seconds=self.TOKEN_TTL_SECONDS
            )
            self._cache.put(cache_key, credential)
            if self._rink is not None:
                self._rink.put(cache_key, credential)
            self.stats.minted += 1
            if self._scope_segments is not None:
                depth = len(scope.key.split("/")) if scope.key else 0
                self._scope_segments.observe(depth)
            return credential

    # -- root authority resolution -----------------------------------------

    def _root_secret_for(
        self, view: MetastoreView, entity: Entity, scope: StoragePath
    ) -> str:
        """Managed assets use the catalog's own root credential (the
        issuer's root secret); external assets use the storage credential
        of the covering external location."""
        if self._is_managed(entity):
            return self._issuer.root_secret
        location = self._covering_location(view, scope)
        if location is None:
            # fall back to the catalog root (external asset registered
            # before locations existed — still catalog-governed storage)
            return self._issuer.root_secret
        credential_name = location.spec.get("credential_name")
        credential_entity = view.entity_by_name(
            location.parent_id, "storage_credential", credential_name
        )
        if credential_entity is None:
            raise CredentialError(
                f"external location {location.name!r} references missing "
                f"storage credential {credential_name!r}"
            )
        return credential_entity.spec["root_secret"]

    @staticmethod
    def _is_managed(entity: Entity) -> bool:
        if entity.kind is SecurableKind.TABLE:
            return entity.spec.get("table_type") == "MANAGED"
        if entity.kind is SecurableKind.VOLUME:
            return entity.spec.get("volume_type") == "MANAGED"
        # models and model versions always use catalog-managed artifact dirs
        return True

    @staticmethod
    def _covering_location(
        view: MetastoreView, scope: StoragePath
    ) -> Optional[Entity]:
        for location in view.entities(SecurableKind.EXTERNAL_LOCATION):
            if location.storage_path:
                location_path = StoragePath.parse(location.storage_path)
                if location_path.contains(scope):
                    return location
        return None
