"""Dynamic linker semantics: load order, interposition, RTLD_NEXT, TLS."""

import pytest

from repro.binfmt import SharedObject, Symbol
from repro.errors import LoaderError
from repro.isa import X86SIM, Imm, ImportSlot, Reg, assemble, ins, label
from repro.isa.assembler import collect_labels
from repro.kernel import Kernel
from repro.layout import (DATA_REGION_OFFSET, FIRST_MODULE_BASE,
                          RETURN_SENTINEL)
from repro.platform import LINUX_X86, SOLARIS_SPARC
from repro.runtime import Process, ProcessSnapshot
from repro.runtime.cpu import ShadowFrame
from repro.toolchain import LibraryBuilder, minc


def _const_lib(soname, value, fn="f"):
    builder = LibraryBuilder(soname)
    builder.simple(fn, 0, minc.Return(minc.Const(value)))
    return builder.build(LINUX_X86).image


class TestLoading:
    def test_module_bases_are_spaced(self, kernel, libc_linux):
        proc = Process(kernel, LINUX_X86)
        m0 = proc.load(_const_lib("a.so", 1))
        m1 = proc.load(_const_lib("b.so", 2))
        assert m0.base == FIRST_MODULE_BASE
        assert m1.base > m0.base
        assert m1.data_base == m1.base + DATA_REGION_OFFSET

    def test_wrong_machine_rejected(self, kernel):
        builder = LibraryBuilder("s.so")
        builder.simple("f", 0, minc.Return(minc.Const(0)))
        sparc_image = builder.build(SOLARIS_SPARC).image
        proc = Process(kernel, LINUX_X86)
        with pytest.raises(LoaderError):
            proc.load(sparc_image)

    def test_module_by_soname(self, kernel):
        proc = Process(kernel, LINUX_X86)
        proc.load(_const_lib("a.so", 1))
        assert proc.module_by_soname("a.so").image.soname == "a.so"
        with pytest.raises(LoaderError):
            proc.module_by_soname("nope.so")

    def test_tcb_self_pointer_initialized(self, kernel):
        proc = Process(kernel, LINUX_X86)
        module = proc.load(_const_lib("a.so", 1))
        assert proc.memory.read_u32(module.tls_base) == module.tls_base


class TestResolution:
    def test_first_provider_wins(self, kernel):
        proc = Process(kernel, LINUX_X86)
        proc.load(_const_lib("one.so", 111))
        proc.load(_const_lib("two.so", 222))
        assert proc.libcall("f") == 111

    def test_preload_interposes(self, kernel):
        """LD_PRELOAD semantics (§5.1)."""
        proc = Process(kernel, LINUX_X86)
        proc.load_program([_const_lib("orig.so", 1)],
                          preload=[_const_lib("shim.so", 99)])
        assert proc.libcall("f") == 99

    def test_windows_late_injection_interposes(self, kernel):
        """WriteProcessMemory/CreateRemoteThread semantics (§5.1)."""
        proc = Process(kernel, LINUX_X86)
        proc.load(_const_lib("orig.so", 1))
        assert proc.libcall("f") == 1        # PLT-level caches may be warm
        proc.inject_library(_const_lib("shim.so", 99))
        assert proc.libcall("f") == 99       # caches were flushed

    def test_rtld_next_skips_shim(self, kernel):
        proc = Process(kernel, LINUX_X86)
        shim = proc.load(_const_lib("shim.so", 99))
        proc.load(_const_lib("orig.so", 1))
        addr = proc.resolve_next("f", shim.index)
        orig_module = proc.module_for_addr(addr)
        assert orig_module.image.soname == "orig.so"

    def test_rtld_next_respects_resolution_order(self, kernel):
        proc = Process(kernel, LINUX_X86)
        proc.load(_const_lib("orig.so", 1))
        shim = proc.inject_library(_const_lib("shim.so", 99))
        addr = proc.resolve_next("f", shim.index)
        assert proc.module_for_addr(addr).image.soname == "orig.so"

    def test_rtld_next_exhausted(self, kernel):
        proc = Process(kernel, LINUX_X86)
        only = proc.load(_const_lib("only.so", 1))
        with pytest.raises(LoaderError):
            proc.resolve_next("f", only.index)

    def test_undefined_symbol(self, kernel):
        proc = Process(kernel, LINUX_X86)
        with pytest.raises(LoaderError):
            proc.lookup("ghost")

    def test_cross_library_import_resolution(self, kernel, libc_linux):
        builder = LibraryBuilder("wrapper.so", needed=("libc.so.6",))
        builder.simple("mypid", 0, minc.Return(minc.Call("getpid", ())))
        proc = Process(kernel, LINUX_X86)
        proc.load_program([builder.build(LINUX_X86).image,
                           libc_linux.image])
        assert proc.libcall("mypid") == proc.kstate.pid


def _asm_lib(soname, items, exports, imports=()):
    """A hand-assembled image exporting ``exports`` (name -> label)."""
    text = assemble(items, X86SIM)
    labels = collect_labels(items)
    return SharedObject(
        soname=soname, machine="x86sim", text=text, imports=tuple(imports),
        exports=tuple(Symbol(name, labels[at], 4)
                      for name, at in exports.items()))


def _returns(*pairs):
    """Items for functions ``name: mov eax, value; ret``."""
    items = []
    for name, value in pairs:
        items += [label(name), ins("mov", Reg("eax"), Imm(value)),
                  ins("ret")]
    return items


#: two functions in one text, so one module can be relinked between them
_SPLICE_TEXT = _returns(("t99", 99), ("t77", 77))


class TestPltUnderBoundClosures:
    """The block path binds each import call's PLT slot once and then
    reads the process's PLT cache directly.  Every change of provider
    must still reach the next call of an already bound ``call [import]``
    block and stub block, exactly as on the step path."""

    def _scenario(self, use_blocks):
        proc = Process(Kernel(), LINUX_X86)
        proc.cpu.use_blocks = use_blocks

        def host(proc, cpu):
            # a host agrees with its binding's bypass, or passes through
            # to g8
            sp = cpu.regs["esp"]
            ask = proc.host_functions[h].bypass
            dest = ask(proc, proc.memory.read_u32(sp + 4)) if ask else None
            dest = dest if dest is not None else proc.lookup("g8")
            cpu.shadow.pop()
            if cpu.shadow:
                cpu.shadow[-1].callee_addr = dest
            cpu.force_transfer(dest, sp + 8)

        def to(name):
            return lambda proc, imm: proc.lookup(name)

        h = proc.register_host("h", host, raw=True, bypass=to("g5"))
        proc.load(_asm_lib("app.so", [
            label("caller"), ins("call", ImportSlot(0)), ins("ret"),
            label("stub"), ins("push", Imm(7)), ins("call", ImportSlot(1)),
            ins("ret")], {"caller": "caller", "stub": "stub"},
            imports=("target", "h")))
        proc.load(_asm_lib("one.so", _returns(("t42", 42)),
                           {"target": "t42"}))
        proc.load(_asm_lib("g.so", _returns(("g5", 5), ("g6", 6),
                                            ("g8", 8)),
                           {"g5": "g5", "g6": "g6", "g8": "g8"}))
        seen = []

        def observe(step):
            seen.append((step, _call(proc, "caller"), _call(proc, "stub")))

        def rebind(name):
            proc.rebind_host(h, "h", host, bypass=to(name) if name else None)

        observe("bound")
        checkpoint = ProcessSnapshot.capture(proc)
        two = proc.inject_library(_asm_lib("two.so", _SPLICE_TEXT,
                                           {"target": "t99"}))
        observe("front splice")
        proc.relink(two, _asm_lib("two-b.so", _SPLICE_TEXT,
                                  {"target": "t77"}))
        observe("relink")
        rebind("g6")
        observe("bypass swapped")
        rebind(None)
        observe("bypass removed")
        # back to one.so's target (cached at the checkpoint) and the g5
        # bypass, then a splice in front of it
        checkpoint.rewind()
        proc.memory.snapshot_end()
        proc.inject_library(_asm_lib("three.so", _returns(("t55", 55)),
                                     {"target": "t55"}))
        observe("rewind, front splice")
        return seen

    def test_next_call_reaches_the_current_provider(self):
        block = self._scenario(True)
        step = self._scenario(False)
        assert [(s, c["result"], st["result"]) for s, c, st in block] == [
            ("bound", 42, 5),
            ("front splice", 99, 5),
            ("relink", 77, 5),
            ("bypass swapped", 77, 6),
            ("bypass removed", 77, 8),
            ("rewind, front splice", 55, 5),
        ]
        assert block == step


def _call(proc, name):
    """Run export ``name`` from a sentinel frame; what it leaves."""
    cpu = proc.cpu
    addr = proc.lookup(name)
    cpu.push(RETURN_SENTINEL)
    cpu.shadow.append(ShadowFrame(RETURN_SENTINEL, addr))
    cpu.run(addr)
    return {"result": cpu.regs["eax"], "regs": cpu.regs.as_dict(),
            "shadow": [(f.return_addr, f.callee_addr) for f in cpu.shadow],
            "memory": proc.memory.content_digest(),
            "instructions": cpu.instructions_executed}


class TestSymbolization:
    def test_symbol_for_addr(self, kernel):
        proc = Process(kernel, LINUX_X86)
        module = proc.load(_const_lib("a.so", 1))
        sym = module.image.find_export("f")
        assert proc.symbol_for_addr(module.base + sym.offset) == "f"
        assert proc.symbol_for_addr(0x100) is None

    def test_app_frames_in_backtrace(self, kernel):
        proc = Process(kernel, LINUX_X86)
        with proc.frame("refresh_files"):
            frames = proc.backtrace_frames()
        assert frames[-1] == (0, "refresh_files")
        assert proc.backtrace_frames() == []


class TestScratch:
    def test_cstr_roundtrip(self, kernel):
        proc = Process(kernel, LINUX_X86)
        addr = proc.cstr("/etc/passwd")
        assert proc.read_cstr(addr) == "/etc/passwd"

    def test_scratch_allocations_disjoint(self, kernel):
        proc = Process(kernel, LINUX_X86)
        a = proc.scratch_alloc(100)
        b = proc.scratch_alloc(100)
        assert abs(b - a) >= 100


class TestSparcCalls:
    def test_register_argument_passing(self, kernel_image_sparc, libc_sparc):
        kernel = Kernel(os_name="Solaris")
        proc = Process(kernel, SOLARIS_SPARC)
        builder = LibraryBuilder("m.so")
        builder.simple("sub", 2,
                       minc.Return(minc.BinOp("-", minc.Param(0),
                                              minc.Param(1))))
        builder_img = builder.build(SOLARIS_SPARC).image
        proc.load(builder_img)
        assert proc.libcall("sub", 50, 8) == 42
