"""Profile reuse across programs and library updates (§3.1/§6.2)."""

import pytest

from repro.core.profiler import HeuristicConfig, Profiler
from repro.core.store import (ProfileStore, heuristics_digest, image_digest)
from repro.platform import LINUX_X86
from repro.toolchain import LibraryBuilder, minc


def _library(soname="libs.so", code=-9):
    builder = LibraryBuilder(soname)
    builder.simple("f", 1,
                   minc.If(minc.Cond("==", minc.Param(0), minc.Const(1)),
                           minc.body(minc.Return(minc.Const(code)))),
                   minc.Return(minc.Param(0)))
    return builder.build(LINUX_X86).image


class TestStore:
    def test_first_run_misses_then_hits(self, tmp_path, libc_linux,
                                        kernel_image_linux):
        store = ProfileStore(tmp_path)
        libs = {"libc.so.6": libc_linux.image}
        first = store.profile_or_load(LINUX_X86, libs, kernel_image_linux)
        assert store.misses == 1 and store.hits == 0
        second = store.profile_or_load(LINUX_X86, libs,
                                       kernel_image_linux)
        assert store.hits == 1
        assert second["libc.so.6"].function("close").retvals() \
            == first["libc.so.6"].function("close").retvals()

    def test_survives_reopen(self, tmp_path):
        image = _library()
        ProfileStore(tmp_path).profile_or_load(LINUX_X86,
                                               {image.soname: image})
        reopened = ProfileStore(tmp_path)
        assert reopened.is_fresh(image)
        assert image.soname in reopened.stored_sonames()
        profiles = reopened.profile_or_load(LINUX_X86,
                                            {image.soname: image})
        assert reopened.hits == 1
        assert -9 in profiles[image.soname].function("f").retvals()

    def test_library_update_invalidates(self, tmp_path):
        """The §6.2 monthly-update workflow: only the changed library is
        re-analyzed."""
        old = _library(code=-9)
        store = ProfileStore(tmp_path)
        store.profile_or_load(LINUX_X86, {old.soname: old})
        new = _library(code=-13)        # a new release of the library
        assert image_digest(new) != image_digest(old)
        profiles = store.profile_or_load(LINUX_X86, {new.soname: new})
        assert store.misses == 2
        assert -13 in profiles[new.soname].function("f").retvals()
        assert -9 not in profiles[new.soname].function("f").retvals()

    def test_kernel_update_invalidates(self, tmp_path, libc_linux,
                                       kernel_image_linux):
        store = ProfileStore(tmp_path)
        libs = {"libc.so.6": libc_linux.image}
        store.profile_or_load(LINUX_X86, libs, kernel_image_linux)
        # same library, different (here: absent) kernel -> stale
        store.profile_or_load(LINUX_X86, libs, None)
        assert store.misses == 2

    def test_partial_staleness(self, tmp_path):
        a = _library("liba.so", -1)
        b = _library("libb.so", -2)
        store = ProfileStore(tmp_path)
        store.profile_or_load(LINUX_X86, {"liba.so": a, "libb.so": b})
        assert store.misses == 2
        b2 = _library("libb.so", -22)
        store.profile_or_load(LINUX_X86, {"liba.so": a, "libb.so": b2})
        assert store.misses == 3 and store.hits == 1

    def test_corrupt_manifest_recovers(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        store = ProfileStore(tmp_path)
        image = _library()
        profiles = store.profile_or_load(LINUX_X86,
                                         {image.soname: image})
        assert image.soname in profiles

    def test_load_missing_returns_none(self, tmp_path):
        assert ProfileStore(tmp_path).load("ghost.so") is None


class TestHeuristicsInvalidation:
    """Regression: flipping a §3.1 filter must re-profile (the filters
    change profile content, so a stale cache would silently serve
    profiles computed under the wrong configuration)."""

    def test_digest_distinguishes_configs(self):
        assert heuristics_digest(HeuristicConfig.default()) \
            != heuristics_digest(HeuristicConfig.all_enabled())
        assert heuristics_digest(None) \
            == heuristics_digest(HeuristicConfig.default())

    def test_heuristics_change_invalidates(self, tmp_path):
        image = _library()
        libs = {image.soname: image}
        store = ProfileStore(tmp_path)
        store.profile_or_load(LINUX_X86, libs,
                              heuristics=HeuristicConfig.default())
        assert store.misses == 1
        # same library + kernel, different filter config -> stale
        store.profile_or_load(LINUX_X86, libs,
                              heuristics=HeuristicConfig.all_enabled())
        assert store.misses == 2
        # and back again: the manifest tracks the latest config only
        store.profile_or_load(LINUX_X86, libs,
                              heuristics=HeuristicConfig.all_enabled())
        assert store.misses == 2 and store.hits >= 1

    def test_is_fresh_checks_heuristics(self, tmp_path):
        image = _library()
        store = ProfileStore(tmp_path)
        store.profile_or_load(LINUX_X86, {image.soname: image})
        assert store.is_fresh(image)
        assert not store.is_fresh(
            image, heuristics=HeuristicConfig.all_enabled())


class TestCacheSkipsProfiler:
    """Satellite: the cache-hit path must never invoke the profiler."""

    def _forbid_profiling(self, monkeypatch):
        def explode(self, *args, **kwargs):
            raise AssertionError("profiler ran on the cache-hit path")
        monkeypatch.setattr(Profiler, "profile_library", explode)

    def test_disk_hit_skips_profiler(self, tmp_path, monkeypatch):
        image = _library()
        ProfileStore(tmp_path).profile_or_load(LINUX_X86,
                                               {image.soname: image})
        self._forbid_profiling(monkeypatch)
        store = ProfileStore(tmp_path)
        profiles = store.profile_or_load(LINUX_X86,
                                         {image.soname: image})
        assert store.hits == 1 and store.misses == 0
        assert -9 in profiles[image.soname].function("f").retvals()
