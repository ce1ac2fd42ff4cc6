"""Shared fixtures.

Library compilation and profiling are deterministic and immutable, so
expensive artifacts (libc builds, kernel images, profiles) are
session-scoped.
"""

from __future__ import annotations

import pytest

from repro.apps.apr import apr, aprutil
from repro.corpus.libc import libc
from repro.core.profiler import Profiler
from repro.kernel import Kernel, build_kernel_image
from repro.platform import ALL_PLATFORMS, LINUX_X86, SOLARIS_SPARC, WINDOWS_X86


@pytest.fixture(scope="session")
def linux():
    return LINUX_X86


@pytest.fixture(scope="session")
def sparc():
    return SOLARIS_SPARC


@pytest.fixture(scope="session")
def windows():
    return WINDOWS_X86


@pytest.fixture(scope="session")
def libc_linux():
    return libc(LINUX_X86)


@pytest.fixture(scope="session")
def libc_sparc():
    return libc(SOLARIS_SPARC)


@pytest.fixture(scope="session")
def kernel_image_linux():
    return build_kernel_image(LINUX_X86)


@pytest.fixture(scope="session")
def kernel_image_sparc():
    return build_kernel_image(SOLARIS_SPARC)


@pytest.fixture(scope="session")
def libc_profile_linux(libc_linux, kernel_image_linux):
    profiler = Profiler(LINUX_X86,
                        {libc_linux.image.soname: libc_linux.image},
                        kernel_image_linux)
    return profiler.profile_library(libc_linux.image.soname)


@pytest.fixture(scope="session")
def libc_profiles_linux(libc_profile_linux):
    return {"libc.so.6": libc_profile_linux}


@pytest.fixture(scope="session")
def web_stack_linux(libc_linux, kernel_image_linux):
    """libc + libapr + libaprutil images and their profiles."""
    images = {b.image.soname: b.image
              for b in (libc_linux, apr(LINUX_X86), aprutil(LINUX_X86))}
    profiler = Profiler(LINUX_X86, images, kernel_image_linux)
    return images, profiler.profile_all()


@pytest.fixture()
def kernel():
    return Kernel()


@pytest.fixture()
def pool_items(monkeypatch):
    """The number of items of each ``WorkerPool.map`` call, in order:
    what a campaign hands its pool, counted in the parent, so the same
    on every backend."""
    from repro.core.exec import WorkerPool

    sizes = []
    pool_map = WorkerPool.map

    def counting_map(pool, fn, items, progress=None):
        items = list(items)
        sizes.append(len(items))
        return pool_map(pool, fn, items, progress=progress)

    monkeypatch.setattr(WorkerPool, "map", counting_map)
    return sizes
