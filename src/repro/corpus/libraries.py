"""The Table 2 / §6.2 library corpus.

One :class:`~repro.corpus.spec.LibrarySpec` per row of the paper's
Table 2, parameterized so the generated library *should* produce the
paper's TP/FN/FP counts when profiled and scored against its own
documentation; plus ``libpcre`` for the hand-audited ground-truth
experiment (52 TP / 10 FN / 0 FP over 20 exported functions) and the
graded-size set used for the §6.2 profiling-time measurements (libdmx,
18 functions / 8 KB ... libxml2, 1612 functions / 897 KB).
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Tuple

from ..platform import (LINUX_X86, SOLARIS_SPARC, WINDOWS_X86, Platform,
                        platform_by_name)
from .spec import GeneratedLibrary, LibrarySpec, generate_library

#: (soname, platform, n_functions, TP, FN, FP, filler, indirect-branch fns)
TABLE2_ROWS: Tuple[Tuple[str, Platform, int, int, int, int, int, int], ...] = (
    ("libssl", WINDOWS_X86, 300, 164, 18, 6, 24, 1),
    ("libxml2", SOLARIS_SPARC, 1612, 1003, 138, 88, 40, 2),
    ("libpanel", SOLARIS_SPARC, 25, 23, 0, 0, 12, 0),
    ("libpctx", SOLARIS_SPARC, 15, 10, 0, 2, 12, 0),
    ("libldap", LINUX_X86, 250, 368, 45, 21, 24, 1),
    ("libxml2", LINUX_X86, 1612, 989, 152, 102, 40, 2),
    ("libXss", LINUX_X86, 12, 12, 1, 0, 12, 0),
    ("libgtkspell", LINUX_X86, 8, 7, 0, 0, 12, 0),
    ("libpanel", LINUX_X86, 25, 21, 2, 0, 12, 0),
    ("libdmx", LINUX_X86, 18, 26, 8, 0, 16, 0),
    ("libao", LINUX_X86, 15, 12, 3, 0, 12, 0),
    ("libhesiod", LINUX_X86, 12, 10, 0, 0, 12, 0),
    ("libnetfilter_q", LINUX_X86, 30, 24, 2, 0, 12, 0),
    ("libcdt", LINUX_X86, 20, 15, 0, 0, 12, 0),
    ("libdaemon", LINUX_X86, 30, 30, 3, 0, 12, 0),
    ("libdns_sd", LINUX_X86, 40, 50, 4, 2, 12, 0),
    ("libgimpthumb", LINUX_X86, 35, 31, 3, 3, 12, 0),
    ("libvorbisfile", LINUX_X86, 35, 133, 4, 39, 16, 1),
)

#: Paper-reported accuracies, for EXPERIMENTS.md comparison.
TABLE2_PAPER_ACCURACY: Dict[Tuple[str, str], int] = {
    ("libssl", "windows-x86"): 87,
    ("libxml2", "solaris-sparc"): 81,
    ("libpanel", "solaris-sparc"): 100,
    ("libpctx", "solaris-sparc"): 83,
    ("libldap", "linux-x86"): 85,
    ("libxml2", "linux-x86"): 80,
    ("libXss", "linux-x86"): 92,
    ("libgtkspell", "linux-x86"): 100,
    ("libpanel", "linux-x86"): 91,
    ("libdmx", "linux-x86"): 76,
    ("libao", "linux-x86"): 80,
    ("libhesiod", "linux-x86"): 100,
    ("libnetfilter_q", "linux-x86"): 92,
    ("libcdt", "linux-x86"): 100,
    ("libdaemon", "linux-x86"): 91,
    ("libdns_sd", "linux-x86"): 89,
    ("libgimpthumb", "linux-x86"): 84,
    ("libvorbisfile", "linux-x86"): 75,
}


def table2_spec(soname: str, n_functions: int, tp: int, fn: int, fp: int,
                filler: int, indirect_fns: int) -> LibrarySpec:
    return LibrarySpec(
        soname=f"{soname}.so",
        n_functions=n_functions,
        visible_codes=tp,
        hidden_codes=fn,
        phantom_codes=fp,
        seed=zlib.crc32(soname.encode("utf-8")) & 0xFFFF,
        filler_instructions=filler,
        errno_fraction=0.15,
        outarg_fraction=0.08,
        indirect_branch_fns=indirect_fns,
    )


_CACHE: Dict[Tuple[str, str], GeneratedLibrary] = {}


def build_table2_library(soname: str,
                         platform: Platform) -> GeneratedLibrary:
    """Build (cached) one Table 2 library for a platform."""
    key = (soname, platform.name)
    if key in _CACHE:
        return _CACHE[key]
    for row in TABLE2_ROWS:
        name, plat, n_fns, tp, fn, fp, filler, ind = row
        if name == soname and plat.name == platform.name:
            generated = generate_library(
                table2_spec(name, n_fns, tp, fn, fp, filler, ind), plat)
            _CACHE[key] = generated
            return generated
    raise KeyError(f"no Table 2 row for {soname} on {platform.name}")


def all_table2_libraries() -> List[GeneratedLibrary]:
    return [build_table2_library(row[0], row[1]) for row in TABLE2_ROWS]


def build_libpcre(platform: Platform = LINUX_X86) -> GeneratedLibrary:
    """The hand-audited library: 20 exports, 52 TP, 10 FN, 0 FP (§6.3)."""
    spec = LibrarySpec(
        soname="libpcre.so",
        n_functions=20,
        visible_codes=52,
        hidden_codes=10,
        phantom_codes=0,
        seed=0x9C4E,
        filler_instructions=16,
        errno_fraction=0.1,
    )
    return generate_library(spec, platform)


#: §6.2 profiling-time ladder: (soname, functions, filler) — filler scales
#: the code segment from libdmx-small to libxml2-large.
EFFICIENCY_LADDER: Tuple[Tuple[str, int, int], ...] = (
    ("libdmx.so", 18, 16),
    ("libpanel.so", 25, 12),
    ("libdaemon.so", 30, 12),
    ("libldap.so", 250, 24),
    ("libssl.so", 300, 24),
    ("libxml2.so", 1612, 40),
)
