"""Small public-surface corners: layout, platform, errno, top-level API."""

import re
from pathlib import Path

import pytest

from repro import __version__
from repro.kernel.errno import errno_name, errno_number, strerror
from repro.layout import (DATA_REGION_OFFSET, FIRST_MODULE_BASE,
                          MODULE_SPACING, data_base, module_base)
from repro.platform import (ALL_PLATFORMS, LINUX_X86, SOLARIS_SPARC,
                            WINDOWS_X86, platform_by_name)


class TestLayout:
    def test_module_bases_monotone_and_spaced(self):
        bases = [module_base(i) for i in range(5)]
        assert bases[0] == FIRST_MODULE_BASE
        assert all(b2 - b1 == MODULE_SPACING
                   for b1, b2 in zip(bases, bases[1:]))

    def test_data_base_offset(self):
        assert data_base(module_base(0)) \
            == FIRST_MODULE_BASE + DATA_REGION_OFFSET

    def test_text_fits_below_data(self):
        assert DATA_REGION_OFFSET < MODULE_SPACING


class TestPlatformTable:
    def test_lookup_roundtrip(self):
        for platform in ALL_PLATFORMS:
            assert platform_by_name(platform.name) is platform

    def test_unknown_platform(self):
        with pytest.raises(KeyError):
            platform_by_name("beos-ppc")

    def test_interposition_assignments(self):
        # §5.1: LD_PRELOAD on Linux/Solaris, remote thread on Windows
        assert LINUX_X86.interposition == "LD_PRELOAD"
        assert SOLARIS_SPARC.interposition == "LD_PRELOAD"
        assert "CreateRemoteThread" in WINDOWS_X86.interposition

    def test_errno_channels(self):
        assert LINUX_X86.errno_channel == "TLS"
        assert SOLARIS_SPARC.errno_channel == "GLOBAL"


class TestErrnoTables:
    def test_number_name_roundtrip(self):
        assert errno_number("EBADF") == 9
        assert errno_name(9) == "EBADF"
        assert errno_name(-9) == "EBADF"      # kernel-signed accepted

    def test_ewouldblock_aliases_eagain(self):
        assert errno_number("EWOULDBLOCK") == errno_number("EAGAIN")
        assert errno_name(errno_number("EAGAIN")) == "EAGAIN"

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            errno_number("ENOTANERROR")
        with pytest.raises(KeyError):
            errno_name(9999)

    def test_strerror(self):
        assert strerror("EBADF") == "Bad file descriptor"
        assert strerror(5) == "Input/output error"


class TestTopLevelApi:
    def test_version(self):
        assert __version__.count(".") == 2

    def test_version_matches_pyproject(self):
        # a regex, not tomllib: py3.10 has no TOML parser
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        match = re.search(r'^version\s*=\s*"([^"]+)"',
                          pyproject.read_text(), re.MULTILINE)
        assert match and match.group(1) == __version__

    def test_all_exports_resolve(self):
        import repro
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_core_subpackages_reachable(self):
        from repro import core
        for name in core.__all__:
            assert getattr(core, name) is not None, name


class TestCliErrors:
    def test_unknown_subcommand_exits(self):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_generate_plan_io_without_libc_profile(self, tmp_path, capsys):
        from repro.cli import main
        from repro.core.profiles import LibraryProfile
        other = LibraryProfile(soname="libother.so", platform="linux-x86")
        path = tmp_path / "other.xml"
        path.write_text(other.to_xml())
        assert main(["generate-plan", str(path), "--mode", "io"]) == 2
        assert "libc profile" in capsys.readouterr().err

    def test_bad_profile_xml_reports_error(self, tmp_path, capsys):
        from repro.cli import main
        bad = tmp_path / "bad.xml"
        bad.write_text("<not-a-profile/>")
        assert main(["generate-plan", str(bad), "--mode", "random"]) == 1
        assert "error" in capsys.readouterr().err
