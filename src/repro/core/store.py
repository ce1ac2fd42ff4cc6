"""On-disk fault-profile store with staleness tracking.

§3.1: "we wish to reuse profiles across multiple programs once they have
been generated"; §6.2: "when updating a library on the system, which we
expect will happen about once a month, it takes on the order of minutes
to re-analyze the updated library and its dependencies".

The store keys each profile by the library's soname and remembers the
SHA-256 of the exact image bytes it was computed from, the kernel
image's (syscall error sets feed the profiles), and a digest of the
:class:`HeuristicConfig` in force (the §3.1 filters change profile
content, so flipping them must re-profile).  ``profile_or_load``
re-analyzes only when one of those actually changed — the
monthly-update workflow the paper describes.

On top of the disk layer sits a process-wide in-memory LRU keyed by the
same (image, kernel, heuristics) digests.  Repeated same-process
campaigns — e.g. several ``Session.profile()`` calls over an unchanged
sysroot — skip both re-analysis *and* XML parsing entirely.  Cached
profile objects are shared; treat them as read-only.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple

from ..binfmt import SharedObject, image_digest
from ..obs.telemetry import as_telemetry
from ..platform import Platform
from .profiler import HeuristicConfig, Profiler
from .profiles import LibraryProfile

__all__ = ["ProfileStore", "image_digest", "heuristics_digest", "CacheKey"]

_MANIFEST = "manifest.json"

#: (image digest, kernel digest, heuristics digest) — one exact profile.
CacheKey = Tuple[str, str, str]


def heuristics_digest(config: Optional[HeuristicConfig]) -> str:
    """Stable hash of the §3.1 filter configuration."""
    config = config or HeuristicConfig.default()
    blob = json.dumps(dataclasses.asdict(config), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class _LruCache:
    """A small thread-safe LRU of profile objects."""

    def __init__(self, capacity: int = 64) -> None:
        self.capacity = capacity
        self._data: "OrderedDict[CacheKey, LibraryProfile]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: CacheKey) -> Optional[LibraryProfile]:
        with self._lock:
            try:
                value = self._data.pop(key)
            except KeyError:
                self.misses += 1
                return None
            self._data[key] = value        # re-insert as most recent
            self.hits += 1
            return value

    def put(self, key: CacheKey, value: LibraryProfile) -> None:
        with self._lock:
            self._data.pop(key, None)
            self._data[key] = value
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


class ProfileStore:
    """A directory of ``<soname>.profile.xml`` files plus a manifest."""

    #: Process-wide memory layer, shared by every store instance so
    #: repeated same-process campaigns reuse profiles across stores.
    _memory = _LruCache(capacity=64)

    def __init__(self, root, *, memory_cache: bool = True,
                 telemetry=None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._manifest: Dict[str, Dict[str, str]] = {}
        self._memory_enabled = memory_cache
        self.hits = 0
        self.misses = 0
        self.memory_hits = 0
        self.telemetry = as_telemetry(telemetry)
        self._load_manifest()

    @classmethod
    def clear_memory_cache(cls) -> None:
        """Drop the process-wide LRU (tests; manual invalidation)."""
        cls._memory.clear()

    # -- manifest ----------------------------------------------------------

    def _manifest_path(self) -> Path:
        return self.root / _MANIFEST

    def _load_manifest(self) -> None:
        path = self._manifest_path()
        if path.exists():
            try:
                self._manifest = json.loads(path.read_text())
            except (ValueError, OSError):
                self._manifest = {}

    def _save_manifest(self) -> None:
        self._manifest_path().write_text(
            json.dumps(self._manifest, indent=2, sort_keys=True))

    def _profile_path(self, soname: str) -> Path:
        return self.root / f"{soname}.profile.xml"

    # -- queries ----------------------------------------------------------

    def is_fresh(self, image: SharedObject,
                 kernel_digest: str = "",
                 heuristics: Optional[HeuristicConfig] = None) -> bool:
        """Whether the stored profile matches these exact inputs."""
        entry = self._manifest.get(image.soname)
        return (entry is not None
                and entry.get("image") == image_digest(image)
                and entry.get("kernel", "") == kernel_digest
                and entry.get("heuristics", "") == heuristics_digest(
                    heuristics)
                and self._profile_path(image.soname).exists())

    def load(self, soname: str) -> Optional[LibraryProfile]:
        path = self._profile_path(soname)
        if not path.exists():
            return None
        return LibraryProfile.from_xml(path.read_text())

    def save(self, profile: LibraryProfile, image: SharedObject,
             kernel_digest: str = "",
             heuristics: Optional[HeuristicConfig] = None) -> None:
        self._profile_path(profile.soname).write_text(profile.to_xml())
        self._manifest[profile.soname] = {
            "image": image_digest(image),
            "kernel": kernel_digest,
            "heuristics": heuristics_digest(heuristics),
            "platform": profile.platform,
        }
        self._save_manifest()

    def stored_sonames(self):
        return sorted(self._manifest)

    # -- the monthly-update workflow ----------------------------------------

    def profile_or_load(self, platform: Platform,
                        images: Mapping[str, SharedObject],
                        kernel_image: Optional[SharedObject] = None,
                        heuristics: Optional[HeuristicConfig] = None,
                        *, jobs: int = 1) -> Dict[str, LibraryProfile]:
        """Profiles for a library closure, re-analyzing only stale ones.

        Returns profiles for every library in ``images``; cached
        entries are served from the in-memory LRU or from disk when
        neither the library, the kernel image, nor the heuristic
        configuration changed since they were computed.  ``jobs > 1``
        analyzes stale libraries' exports on a thread pool.
        """
        kernel_digest = image_digest(kernel_image) if kernel_image else ""
        heur_digest = heuristics_digest(heuristics)
        tele = self.telemetry
        hit_metric = tele.metrics.counter(
            "repro_profile_store_hits_total",
            "Profile cache hits by serving layer", ("layer",))
        miss_metric = tele.metrics.counter(
            "repro_profile_store_misses_total",
            "Profile cache misses (re-analysis runs)")
        invalidations = tele.metrics.counter(
            "repro_profile_store_invalidations_total",
            "Cached profiles discarded because their inputs changed")
        out: Dict[str, LibraryProfile] = {}
        stale: Dict[str, SharedObject] = {}
        for soname, image in images.items():
            key = (image_digest(image), kernel_digest, heur_digest)
            cached = self._memory.get(key) if self._memory_enabled else None
            if cached is not None:
                self.hits += 1
                self.memory_hits += 1
                hit_metric.inc(layer="memory")
                out[soname] = cached
                if not self.is_fresh(image, kernel_digest, heuristics):
                    # keep the on-disk layer authoritative too
                    self.save(cached, image, kernel_digest, heuristics)
                continue
            if self.is_fresh(image, kernel_digest, heuristics):
                disk = self.load(soname)
                if disk is not None:
                    self.hits += 1
                    hit_metric.inc(layer="disk")
                    out[soname] = disk
                    if self._memory_enabled:
                        self._memory.put(key, disk)
                    continue
            if soname in self._manifest:
                # there *was* a profile, but image/kernel/heuristics moved
                invalidations.inc()
                tele.events.emit("cache.invalidate", severity="debug",
                                 soname=soname)
            stale[soname] = image
        if stale:
            # dependencies of stale libraries must be loadable by the
            # analyzer even when their own profiles are cached
            pool = None
            if jobs and jobs > 1:
                from .exec.pool import WorkerPool
                pool = WorkerPool(jobs=jobs, backend="thread")
            profiler = Profiler(platform, dict(images), kernel_image,
                                heuristics, telemetry=tele if tele.enabled
                                else None)
            for soname in sorted(stale):
                self.misses += 1
                miss_metric.inc()
                profile = profiler.profile_library(soname, pool=pool)
                self.save(profile, stale[soname], kernel_digest, heuristics)
                out[soname] = profile
                if self._memory_enabled:
                    self._memory.put((image_digest(stale[soname]),
                                      kernel_digest, heur_digest), profile)
        if tele.enabled:
            tele.events.emit(
                "cache.lookup", severity="debug",
                libraries=len(images), stale=len(stale),
                hits=self.hits, misses=self.misses,
                memory_hits=self.memory_hits)
        return out
