"""Processes, module loading and dynamic symbol resolution.

This is the reproduction's dynamic linker (§5.1):

* Modules load in order; symbol lookup is first-provider-wins across the
  whole load list (ELF flat namespace).  ``LD_PRELOAD`` is therefore just
  "load the shim first" — exactly how LFI interposes on Linux/Solaris.
* ``inject_library`` models the Windows route (WriteProcessMemory +
  CreateRemoteThread + LoadLibrary): the shim loads *late* but its
  exports are spliced in front of the resolution order and PLT caches
  are flushed.
* ``resolve_next`` is ``dlsym(RTLD_NEXT, ...)``: the next definition
  after a given module, which stubs use to find the original function.

Applications in this ecosystem are Python programs driving ``libcall``;
every interaction with libc and other libraries executes real guest code
in the VM, so interception, triggers and side effects behave exactly as
they would under the real tool.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..binfmt import SharedObject
from ..errors import GuestAbort, LoaderError
from ..isa import abi_for
from ..kernel import Kernel, KProcState
from ..layout import (DATA_REGION_OFFSET, FIRST_MODULE_BASE,
                      HOST_REGION_BASE, MODULE_SPACING, RETURN_SENTINEL,
                      STACK_SIZE, STACK_TOP, TLS_BLOCK_SPACING,
                      TLS_REGION_BASE, module_base)
from ..platform import Platform
from .codecache import CODE_CACHE, ModuleCode
from .cpu import Cpu, HostFunction, ShadowFrame, sgn32
from .memory import Memory

_HOST_REGION = HOST_REGION_BASE
_SCRATCH_BASE = 0xA0000000
_SCRATCH_SIZE = 0x400000


@dataclass
class LoadedModule:
    """A SELF image mapped into a process."""

    image: SharedObject
    index: int
    base: int
    tls_base: int
    #: resolution priority of the exports (lower resolves first)
    priority: int = 0

    @property
    def data_base(self) -> int:
        return self.base + DATA_REGION_OFFSET

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.base + MODULE_SPACING


class Process:
    """One guest process: memory, CPU, loaded modules, kernel state."""

    def __init__(self, kernel: Kernel, platform: Platform) -> None:
        self.kernel = kernel
        self.platform = platform
        self.abi = abi_for(platform.machine)
        self.memory = Memory()
        self.join_kernel(kernel)
        self.modules: List[LoadedModule] = []
        self.code_cache: Dict[int, Tuple] = {}
        self._module_code: Dict[int, ModuleCode] = {}
        self.host_functions: Dict[int, HostFunction] = {}
        self._next_host_addr = _HOST_REGION
        # symbol -> ordered provider list of (priority, addr); lower
        # priority resolves first.  Load order assigns 10, 20, 30, ...
        self._providers: Dict[str, List[Tuple[int, int, int]]] = {}
        self._next_priority = 10
        # (module index, import slot) -> resolved address.  One dict for
        # the process's life: bound call closures read it directly, so
        # flushes and rewinds change it in place
        self._plt_cache: Dict[Tuple[int, int], int] = {}
        self.cpu = Cpu(self)
        self.memory.map_region(STACK_TOP - STACK_SIZE, STACK_SIZE)
        self.memory.map_region(_SCRATCH_BASE, _SCRATCH_SIZE)
        self._scratch_next = _SCRATCH_BASE
        self.cpu.regs[self.abi.stack_pointer] = STACK_TOP - 64
        self.app_stack: List[str] = []
        self.exit_status: Optional[int] = None

    def join_kernel(self, kernel: Kernel) -> None:
        """Become a new process of ``kernel``: a new pid, no open
        files and an empty heap.  A recycled process joins each case's
        kernel this way (see ``Controller.make_process``)."""
        self.kernel = kernel
        self.kstate = KProcState(pid=kernel.new_pid())
        kernel.processes.append(self)

    # -- loading --------------------------------------------------------

    def load(self, image: SharedObject, *,
             front: bool = False) -> LoadedModule:
        """Map one image; ``front`` splices its exports ahead of all."""
        if image.machine != self.platform.machine:
            raise LoaderError(
                f"{image.soname} is {image.machine} code, process is "
                f"{self.platform.machine}")
        index = len(self.modules)
        base = module_base(index)
        tls_base = TLS_REGION_BASE + index * TLS_BLOCK_SPACING
        priority = 0 if front else self._next_priority
        if not front:
            self._next_priority += 10
        module = LoadedModule(image, index, base, tls_base, priority)
        self.modules.append(module)

        if len(image.text) > DATA_REGION_OFFSET:
            raise LoaderError(f"{image.soname}: .text too large")
        if image.text:
            self.memory.map_region(base, len(image.text))
            self.memory.write(base, image.text)
        data_size = max(len(image.data), 16)
        self.memory.map_region(module.data_base, data_size)
        if image.data:
            self.memory.write(module.data_base, image.data)
        tls_size = max(image.tls_size, 16)
        self.memory.map_region(tls_base, tls_size)
        self.memory.write_u32(tls_base, tls_base)     # TCB self-pointer

        self._predecode(module)
        for sym in image.exports:
            self._provide(sym.name, (priority, index, base + sym.offset))
        if front:
            self._plt_cache.clear()
        return module

    def relink(self, module: LoadedModule, image: SharedObject) -> None:
        """Put another image with the same mapped bytes behind
        ``module``: its exports replace the old image's, at the
        module's priority.  A recycled process carries the shim of
        whichever controller takes it over this way."""
        old = module.image
        if (image.machine, image.text, image.data, image.tls_size) != \
                (old.machine, old.text, old.data, old.tls_size):
            raise LoaderError(f"cannot relink {old.soname} as "
                              f"{image.soname}: the code differs")
        for sym in old.exports:
            self._withdraw(sym.name, lambda entry: entry[1] == module.index)
        module.image = image
        for sym in image.exports:
            self._provide(sym.name, (module.priority, module.index,
                                     module.base + sym.offset))
        self._plt_cache.clear()

    def load_program(self, libraries: Sequence[SharedObject],
                     preload: Sequence[SharedObject] = ()) -> None:
        """Load shims (LD_PRELOAD) then the regular libraries, in order."""
        for shim in preload:
            self.load(shim)
        for lib in libraries:
            self.load(lib)

    def inject_library(self, image: SharedObject) -> LoadedModule:
        """Windows-style late injection with front-of-line resolution."""
        return self.load(image, front=True)

    def _predecode(self, module: LoadedModule) -> None:
        # decoding and block translation are shared across processes —
        # identical images at the same base reuse one ModuleCode
        mc = CODE_CACHE.module_code(module.image, module.base,
                                    module.tls_base)
        self.code_cache.update(mc.entries)
        self._module_code[module.base] = mc

    def block_template(self, addr: int):
        """The shared compiled-block template entered at ``addr`` (None
        when the address has no module or no compilable block)."""
        if addr < FIRST_MODULE_BASE:
            return None
        base = FIRST_MODULE_BASE + (
            (addr - FIRST_MODULE_BASE) // MODULE_SPACING) * MODULE_SPACING
        mc = self._module_code.get(base)
        if mc is None:
            return None
        return mc.template(addr)

    # -- symbols ----------------------------------------------------------

    def register_host(self, name: str, fn: Callable, *,
                      raw: bool = False, front: bool = False,
                      bypass: Optional[Callable] = None) -> int:
        """Bind a Python callable as a guest-visible symbol (``bypass``:
        see :class:`HostFunction`)."""
        addr = self._next_host_addr
        self._next_host_addr += 4
        self.host_functions[addr] = HostFunction(name, fn, raw, bypass)
        priority = 0 if front else self._next_priority
        if not front:
            self._next_priority += 10
        self._provide(name, (priority, -1, addr))
        if front:
            self._plt_cache.clear()
        return addr

    def rebind_host(self, addr: int, name: str, fn: Callable, *,
                    bypass: Optional[Callable] = None) -> None:
        """Rename the host binding at ``addr`` and point it at ``fn``
        and ``bypass``, keeping its address and resolution priority."""
        old = self.host_functions[addr]
        [entry] = self._withdraw(old.name, lambda entry: entry[2] == addr)
        self._provide(name, entry)
        # in place: compiled block closures hold the dict itself
        self.host_functions[addr] = HostFunction(name, fn, old.raw, bypass)
        self._plt_cache.clear()

    def _provide(self, symbol: str, entry: Tuple[int, int, int]) -> None:
        providers = self._providers.setdefault(symbol, [])
        providers.append(entry)
        providers.sort(key=lambda t: (t[0], t[1]))

    def _withdraw(self, symbol: str,
                  match) -> List[Tuple[int, int, int]]:
        """Drop (and return) the providers of ``symbol`` that ``match``."""
        providers = self._providers[symbol]
        dropped = [entry for entry in providers if match(entry)]
        kept = [entry for entry in providers if not match(entry)]
        if kept:
            self._providers[symbol] = kept
        else:
            del self._providers[symbol]
        return dropped

    def lookup(self, symbol: str) -> int:
        providers = self._providers.get(symbol)
        if not providers:
            raise LoaderError(f"undefined symbol {symbol!r}")
        return providers[0][2]

    def resolve_next(self, symbol: str, after_module_index: int) -> int:
        """dlsym(RTLD_NEXT): next provider in *resolution order* after the
        given module.  Resolution order (not load order) is what matters:
        a Windows-style late-injected shim sits first in resolution order
        even though it loaded last (§5.1)."""
        providers = self._providers.get(symbol, ())
        seen_self = False
        for _prio, index, addr in providers:
            if seen_self:
                return addr
            if index == after_module_index:
                seen_self = True
        raise LoaderError(
            f"RTLD_NEXT: no definition of {symbol!r} after module "
            f"{after_module_index}")

    def plt_key(self, call_site: int, slot: int) -> Tuple[int, int]:
        """The PLT cache key of import ``slot`` called from code at
        ``call_site``: compiled blocks bind it once and read
        ``_plt_cache`` themselves, falling back to :meth:`plt_resolve`."""
        return self.module_for_addr(call_site).index, slot

    def plt_resolve(self, call_site: int, slot: int) -> int:
        module = self.module_for_addr(call_site)
        if module is None:
            raise LoaderError(f"PLT call from unknown code {call_site:#x}")
        key = (module.index, slot)      # as plt_key
        cached = self._plt_cache.get(key)
        if cached is not None:
            return cached
        try:
            symbol = module.image.imports[slot]
        except IndexError:
            raise LoaderError(
                f"{module.image.soname}: bad import slot {slot}") from None
        addr = self.lookup(symbol)
        self._plt_cache[key] = addr
        return addr

    def module_for_addr(self, addr: int) -> Optional[LoadedModule]:
        if addr < FIRST_MODULE_BASE:
            return None
        index = (addr - FIRST_MODULE_BASE) // MODULE_SPACING
        if index < len(self.modules):
            return self.modules[index]
        return None

    def module_by_soname(self, soname: str) -> LoadedModule:
        for module in self.modules:
            if module.image.soname == soname:
                return module
        raise LoaderError(f"module {soname!r} not loaded")

    def tls_base_for_addr(self, addr: int) -> int:
        module = self.module_for_addr(addr)
        if module is None:
            raise LoaderError(f"TLS access from unknown code {addr:#x}")
        return module.tls_base

    def symbol_for_addr(self, addr: int) -> Optional[str]:
        module = self.module_for_addr(addr)
        if module is None:
            return None
        sym = module.image.function_at(addr - module.base)
        return sym.name if sym else None

    # -- memory helpers (used by the kernel) --------------------------------

    def mem_read(self, addr: int, size: int) -> bytes:
        return self.memory.read(addr, size)

    def mem_write(self, addr: int, data: bytes) -> None:
        if data:
            self.memory.write(addr, data)

    def mem_write_u32(self, addr: int, value: int) -> None:
        self.memory.write_u32(addr, value)

    def read_cstr(self, addr: int) -> str:
        return self.memory.read_cstr(addr)

    # -- scratch buffers for app<->guest data ------------------------------

    def scratch_alloc(self, size: int) -> int:
        size = (size + 0xF) & ~0xF
        if self._scratch_next + size > _SCRATCH_BASE + _SCRATCH_SIZE:
            self._scratch_next = _SCRATCH_BASE      # simple arena recycle
        addr = self._scratch_next
        self._scratch_next += size
        return addr

    def cstr(self, text: str) -> int:
        addr = self.scratch_alloc(len(text.encode()) + 1)
        self.memory.write_cstr(addr, text)
        return addr

    # -- app-level call-stack annotation (for <stacktrace> triggers) -------

    @contextmanager
    def frame(self, name: str):
        """Annotate the host-level app call stack, e.g. 'refresh_files'."""
        self.app_stack.append(name)
        try:
            yield
        finally:
            self.app_stack.pop()

    def backtrace_frames(self) -> List[Tuple[int, Optional[str]]]:
        """(return_address, enclosing_function) pairs, innermost first,
        extended with host app frames (address 0)."""
        frames: List[Tuple[int, Optional[str]]] = []
        for shadow in reversed(self.cpu.shadow):
            frames.append((shadow.return_addr,
                           self.symbol_for_addr(shadow.return_addr)))
        for name in reversed(self.app_stack):
            frames.append((0, name))
        return frames

    # -- calling into the guest ---------------------------------------------

    def libcall(self, symbol: str, *arg_values: int,
                max_steps: int = 20_000_000) -> int:
        """Call an exported function the way application code would."""
        addr = self.lookup(symbol)
        cpu = self.cpu
        sp_snapshot = cpu.regs[self.abi.stack_pointer]
        shadow_depth = len(cpu.shadow)
        try:
            if self.abi.arg_registers:
                for i, value in enumerate(arg_values):
                    cpu.regs[self.abi.arg_registers[i]] = value & 0xFFFFFFFF
            else:
                for value in reversed(arg_values):
                    cpu.push(value & 0xFFFFFFFF)
            cpu.push(RETURN_SENTINEL)
            cpu.shadow.append(ShadowFrame(RETURN_SENTINEL, addr))
            host = self.host_functions.get(addr)
            if host is not None:
                cpu.invoke_host_toplevel(host)
            else:
                cpu.run(addr, max_steps=max_steps)
            return sgn32(cpu.regs[self.abi.return_register])
        finally:
            cpu.regs[self.abi.stack_pointer] = sp_snapshot
            del cpu.shadow[shadow_depth:]

    def abort(self, reason: str) -> None:
        """Terminate the process with SIGABRT (e.g. allocation failure)."""
        raise GuestAbort(reason)
