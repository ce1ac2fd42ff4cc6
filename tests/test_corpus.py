"""Corpus: libc ground truth, generated libraries, docs, Table 1 pop."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.accuracy import score_against_docs, score_against_truth
from repro.core.docparse import parse_manual
from repro.core.profiler import HeuristicConfig, Profiler
from repro.corpus import (TABLE2_ROWS, build_libpcre, build_population,
                          build_table2_library, classify_profile,
                          manual_for_library, no_side_effect_fraction)
from repro.corpus.spec import LibrarySpec, generate_library
from repro.corpus.ubuntu import (CHANNEL_ARGS, CHANNEL_GLOBAL, CHANNEL_NONE,
                                 TABLE1_PAPER, PopulationConfig)
from repro.kernel import build_kernel_image
from repro.platform import LINUX_X86, SOLARIS_SPARC


class TestLibcProfile:
    """The paper's §3.3 close example, byte for byte in spirit."""

    def test_close_profile_matches_paper(self, libc_profile_linux):
        close = libc_profile_linux.function("close")
        minus_one = close.find(-1)
        assert minus_one is not None
        tls = [se for se in minus_one.side_effects if se.kind == "TLS"]
        assert tls and set(tls[0].values) == {-9, -5, -4}
        assert tls[0].module == "libc.so.6"

    def test_solaris_close_has_enolink(self, libc_sparc,
                                       kernel_image_sparc):
        profiler = Profiler(SOLARIS_SPARC,
                            {"libc.so.6": libc_sparc.image},
                            kernel_image_sparc)
        profile = profiler.profile_library("libc.so.6")
        effects = profile.function("close").find(-1).side_effects
        values = {v for se in effects for v in se.values}
        assert -67 in values          # ENOLINK, Solaris-only (§3.3)

    def test_malloc_is_null_plus_enomem(self, libc_profile_linux):
        malloc = libc_profile_linux.function("malloc")
        null_return = malloc.find(0)
        assert null_return is not None
        values = {v for se in null_return.side_effects for v in se.values}
        assert -12 in values          # ENOMEM

    def test_opendir_inherits_open_profile(self, libc_profile_linux):
        opendir = libc_profile_linux.function("opendir")
        open_fn = libc_profile_linux.function("open")
        assert -1 in opendir.retvals()
        opendir_vals = {v for se in opendir.find(-1).side_effects
                        for v in se.values}
        open_vals = {v for se in open_fn.find(-1).side_effects
                     for v in se.values}
        assert opendir_vals == open_vals

    def test_memset_and_memcpy_have_no_errors(self, libc_profile_linux):
        assert libc_profile_linux.function("memset").retvals() == []
        assert libc_profile_linux.function("memcpy").retvals() == []

    def test_whole_libc_against_truth(self, libc_linux,
                                      kernel_image_linux):
        profiler = Profiler(LINUX_X86, {"libc.so.6": libc_linux.image},
                            kernel_image_linux,
                            heuristics=HeuristicConfig.all_enabled())
        profile = profiler.profile_library("libc.so.6")
        result = score_against_truth(profile, libc_linux)
        assert result.fn == 0                 # nothing missed
        assert result.accuracy > 0.95


class TestGeneratedLibraries:
    def test_deterministic(self):
        spec = LibrarySpec(soname="libd.so", n_functions=5,
                           visible_codes=6, seed=11)
        first = generate_library(spec, LINUX_X86)
        second = generate_library(spec, LINUX_X86)
        assert first.image.text == second.image.text

    def test_expected_counts_sum(self):
        spec = LibrarySpec(soname="libd.so", n_functions=5,
                           visible_codes=6, hidden_codes=2,
                           phantom_codes=1, seed=11)
        generated = generate_library(spec, LINUX_X86)
        assert generated.expected_counts() == (6, 2, 1)

    def test_hidden_codes_actually_returnable(self):
        """Hidden codes must be real runtime behaviour, not fiction."""
        from repro.kernel import Kernel
        from repro.runtime import Process
        spec = LibrarySpec(soname="libh.so", n_functions=1,
                           visible_codes=0, hidden_codes=1, seed=3,
                           filler_instructions=0)
        generated = generate_library(spec, LINUX_X86)
        hidden_code = generated.functions[0].hidden[0]
        proc = Process(Kernel(), LINUX_X86)
        proc.load(generated.image)
        name = generated.functions[0].name
        # argument 2000 selects the first hidden branch in the helper
        assert proc.libcall(name, 2000, 0, 0) == hidden_code

    def test_phantom_codes_not_returnable(self):
        from repro.kernel import Kernel
        from repro.runtime import Process
        spec = LibrarySpec(soname="libp.so", n_functions=1,
                           visible_codes=0, phantom_codes=1, seed=3,
                           filler_instructions=0)
        generated = generate_library(spec, LINUX_X86)
        phantom = generated.functions[0].phantom[0]
        proc = Process(Kernel(), LINUX_X86)
        proc.load(generated.image)
        name = generated.functions[0].name
        for arg in (0, 1, 7, 1000, 987654):
            assert proc.libcall(name, arg, 0, 0) != phantom


class TestTable2Machinery:
    @pytest.mark.parametrize("soname,platform", [("libdmx", LINUX_X86),
                                                 ("libpanel",
                                                  SOLARIS_SPARC)])
    def test_counts_match_paper_rows(self, soname, platform):
        generated = build_table2_library(soname, platform)
        row = next(r for r in TABLE2_ROWS
                   if r[0] == soname and r[1].name == platform.name)
        profiler = Profiler(platform,
                            {generated.image.soname: generated.image},
                            build_kernel_image(platform),
                            heuristics=HeuristicConfig.all_enabled())
        profile = profiler.profile_library(generated.image.soname)
        docs = parse_manual(manual_for_library(generated))
        result = score_against_docs(profile, docs, built=generated.built)
        assert (result.tp, result.fn, result.fp) == (row[3], row[4], row[5])

    def test_build_ignores_the_string_hash_salt(self):
        """Python salts ``str`` hashes per process; a Table 2 library
        must have the same bytes under every ``PYTHONHASHSEED``."""
        script = ("from repro.binfmt import image_digest\n"
                  "from repro.corpus import build_table2_library\n"
                  "from repro.platform import LINUX_X86\n"
                  "print(image_digest(build_table2_library("
                  "'libdmx', LINUX_X86).image))\n")
        src = str(Path(repro.__file__).resolve().parents[1])
        digests = set()
        for salt in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=salt, PYTHONPATH=src)
            digests.add(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True).stdout.strip())
        assert len(digests) == 1 and "" not in digests

    def test_libpcre_hand_audit_numbers(self):
        generated = build_libpcre()
        profiler = Profiler(LINUX_X86,
                            {generated.image.soname: generated.image},
                            heuristics=HeuristicConfig.all_enabled())
        profile = profiler.profile_library(generated.image.soname)
        result = score_against_truth(profile, generated.built)
        assert (result.tp, result.fn, result.fp) == (52, 10, 0)
        assert round(result.accuracy * 100) == 84


class TestDocsGeneration:
    def test_pages_parse_back(self):
        generated = build_table2_library("libdmx", LINUX_X86)
        manual = manual_for_library(generated)
        parsed = parse_manual(manual)
        assert len(parsed) == len(manual)
        # every documented (visible+hidden) code surfaces in the parse
        for meta in generated.functions:
            documented = set(meta.visible + meta.hidden)
            got = set(parsed[meta.name].error_constants())
            assert documented <= got


class TestTable1Population:
    @pytest.fixture(scope="class")
    def population(self):
        config = PopulationConfig(total_functions=240, n_libraries=6,
                                  seed=42)
        return build_population(LINUX_X86, config)

    def test_population_size(self, population):
        total = sum(len(b.image.exports) for b in population)
        assert total == 240

    def test_measured_fractions_track_paper(self, population,
                                            kernel_image_linux):
        images = {b.image.soname: b.image for b in population}
        profiler = Profiler(LINUX_X86, images, kernel_image_linux)
        counts = {}
        total = 0
        for built in population:
            profile = profiler.profile_library(built.image.soname)
            for record in built.exported_records():
                rtype = record.definition.returns
                channel = classify_profile(
                    profile.function(record.definition.name))
                counts[(rtype, channel)] = counts.get((rtype, channel),
                                                      0) + 1
                total += 1
        measured = {k: v / total for k, v in counts.items()}
        for key, paper_fraction in TABLE1_PAPER.items():
            assert abs(measured.get(key, 0.0) - paper_fraction) < 0.05
        assert no_side_effect_fraction(measured) > 0.90   # the headline


# -- property: generator counts always match profiler measurements ----------

from hypothesis import given, settings
from hypothesis import strategies as st


@given(n_functions=st.integers(2, 10),
       visible=st.integers(0, 12),
       hidden=st.integers(0, 6),
       phantom=st.integers(0, 6),
       seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_property_generated_counts_hold(n_functions, visible, hidden,
                                        phantom, seed):
    """For ANY spec, profiling + truth-scoring must reproduce exactly the
    planted TP/FN/FP — the invariant Table 2 rests on."""
    spec = LibrarySpec(soname="libprop.so", n_functions=n_functions,
                       visible_codes=visible, hidden_codes=hidden,
                       phantom_codes=phantom, seed=seed,
                       filler_instructions=4, errno_fraction=0.2,
                       outarg_fraction=0.2)
    generated = generate_library(spec, LINUX_X86)
    assert generated.expected_counts() == (visible, hidden, phantom)
    profiler = Profiler(LINUX_X86,
                        {generated.image.soname: generated.image},
                        heuristics=HeuristicConfig.all_enabled())
    profile = profiler.profile_library(generated.image.soname)
    result = score_against_truth(profile, generated.built)
    assert (result.tp, result.fn, result.fp) == (visible, hidden, phantom)
