"""The CPU interpreter.

Executes predecoded SELF machine code against a :class:`Memory`, with:

* exact signed comparisons for conditional branches,
* a shadow call stack for backtrace triggers (§4's ``<stacktrace>``),
* host functions — symbols the dynamic linker binds to Python callables;
  *raw* host functions may rewrite CPU state directly, which is how the
  synthesized interception stubs hand control to the LFI controller and
  then either return an injected value or tail-jump to the original
  (§5.1's ``jmp [original_fn_ptr]``).

Two execution paths share one semantics:

* the **block path** (default) runs basic blocks translated into lists
  of specialized closures (see :mod:`repro.runtime.blocks`), compiled
  once per entry address and cached on the CPU;
* the **step path** decodes-and-branches one instruction at a time.  It
  is selected automatically whenever a tracer is attached (so traces
  stay exact, one hook call per instruction), when the remaining step
  budget is smaller than the next block, or when an address has no
  compilable block.

Both paths produce identical register/memory/flag state, identical
``instructions_executed`` counts and identical faults — the block
compiler is an optimization, never an observable behavior change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import IllegalInstruction, MemoryFault, RuntimeFault
from ..isa import Imm, ImportSlot, Mem, Reg
from ..isa.instructions import JCC_TAKEN, Instruction
from ..layout import RETURN_SENTINEL
from .memory import MASK32, Memory

#: Conditional-branch predicates over (ZF, SF), hoisted to module level —
#: the interpreter used to build this dict anew on every conditional
#: jump.  Defined next to the mnemonic table in ``isa.instructions`` so
#: the block compiler fuses with exactly the same semantics.
_JCC_TAKEN = JCC_TAKEN


def sgn32(value: int) -> int:
    """Interpret a 32-bit pattern as signed."""
    value &= MASK32
    return value - (1 << 32) if value & 0x80000000 else value


@dataclass
class ShadowFrame:
    """One entry of the shadow call stack (for backtraces)."""

    return_addr: int
    callee_addr: int


@dataclass
class HostFunction:
    """A Python callable bound into the guest symbol space."""

    name: str
    fn: Callable
    raw: bool = False


class _RunComplete(Exception):
    """Internal: control returned to the host-call sentinel."""


class RegisterFile:
    """The ABI registers: a fixed list behind a dict-like name view.

    The block compiler resolves names to indices once and its closures
    index :attr:`values` directly; host functions, triggers, syscall
    glue and tests keep the familiar ``regs["eax"]`` access.  The
    ``values`` list is identity-stable for the CPU's lifetime — compiled
    closures capture the list object itself.
    """

    __slots__ = ("values", "_names", "_index")

    def __init__(self, names) -> None:
        self._names = tuple(names)
        self._index = {name: i for i, name in enumerate(self._names)}
        self.values = [0] * len(self._names)

    def index(self, name: str) -> int:
        """ABI-resolved position of ``name`` in :attr:`values`."""
        return self._index[name]

    def __getitem__(self, name: str) -> int:
        return self.values[self._index[name]]

    def __setitem__(self, name: str, value: int) -> None:
        self.values[self._index[name]] = value

    def __contains__(self, name) -> bool:
        return name in self._index

    def __iter__(self):
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def keys(self) -> Tuple[str, ...]:
        return self._names

    def items(self):
        return zip(self._names, self.values)

    def get(self, name: str, default=None):
        i = self._index.get(name)
        return default if i is None else self.values[i]

    def as_dict(self) -> Dict[str, int]:
        return dict(zip(self._names, self.values))

    def __repr__(self) -> str:
        inside = ", ".join(f"{n}={v:#x}" for n, v in self.items())
        return f"RegisterFile({inside})"


class _BindContext:
    """Per-CPU state handed to block binders (see ``blocks.py``).

    Binders pull these into closure cells once, so the per-instruction
    hot path is LOAD_DEREF + a list index instead of repeated attribute
    chains through cpu/proc/memory.
    """

    __slots__ = ("cpu", "proc", "values", "mem", "read_u32", "write_u32",
                 "hosts")

    def __init__(self, cpu: "Cpu") -> None:
        self.cpu = cpu
        self.proc = cpu.proc
        self.values = cpu.regs.values
        self.mem = cpu.mem
        self.read_u32 = cpu.mem.read_u32
        self.write_u32 = cpu.mem.write_u32
        self.hosts = cpu.proc.host_functions


class Cpu:
    """One virtual CPU bound to a process."""

    #: Class-wide default for the block-compiled fast path.  Campaign
    #: workers inherit it across fork/thread boundaries; tests flip it
    #: (or the per-instance attribute) to force the step path.
    use_blocks: bool = True

    def __init__(self, proc) -> None:
        self.proc = proc
        self.abi = proc.abi
        self.mem: Memory = proc.memory
        self.regs = RegisterFile(self.abi.registers)
        self.zf = False
        self.sf = False
        self.eip = 0
        self.shadow: List[ShadowFrame] = []
        self.instructions_executed = 0
        #: optional per-instruction hook: fn(addr, instruction);
        #: attaching one automatically selects the exact step path
        self.tracer = None
        #: optional block-coverage accumulator: entry address -> number
        #: of times the block at that address was dispatched.  ``None``
        #: (the default) keeps the hot loop free of any coverage cost;
        #: the controller arms it with a dict when a campaign records
        #: coverage.  Snapshot restore rewinds it alongside
        #: ``instructions_executed`` so prefix+suffix replays count
        #: exactly what a fresh run counts.
        self.coverage: Optional[Dict[int, int]] = None
        #: entry address -> bound block (or None for "not compilable")
        self._blocks: Dict[int, object] = {}
        self._bindctx = _BindContext(self)

    # -- operand plumbing ---------------------------------------------------

    def _mem_addr(self, op: Mem) -> int:
        addr = op.disp
        if op.base:
            addr += self.regs[op.base]
        if op.index:
            addr += self.regs[op.index] * op.scale
        addr &= MASK32
        if op.segment == "gs":
            addr = (addr + self.proc.tls_base_for_addr(self.eip)) & MASK32
        return addr

    def _read(self, op) -> int:
        if isinstance(op, Reg):
            return self.regs[op.name]
        if isinstance(op, Imm):
            return op.value & MASK32
        if isinstance(op, Mem):
            return self.mem.read_u32(self._mem_addr(op))
        raise IllegalInstruction(
            f"operand {op!r} not readable at {self.eip:#x}", eip=self.eip)

    def _write(self, op, value: int) -> None:
        value &= MASK32
        if isinstance(op, Reg):
            self.regs[op.name] = value
        elif isinstance(op, Mem):
            self.mem.write_u32(self._mem_addr(op), value)
        else:
            raise IllegalInstruction(
                f"operand {op!r} not writable at {self.eip:#x}", eip=self.eip)

    def _set_flags(self, signed_result: int) -> None:
        self.zf = signed_result == 0
        self.sf = signed_result < 0

    # -- stack ------------------------------------------------------------

    def push(self, value: int) -> None:
        sp = (self.regs[self.abi.stack_pointer] - 4) & MASK32
        self.regs[self.abi.stack_pointer] = sp
        self.mem.write_u32(sp, value)

    def pop(self) -> int:
        sp = self.regs[self.abi.stack_pointer]
        value = self.mem.read_u32(sp)
        self.regs[self.abi.stack_pointer] = (sp + 4) & MASK32
        return value

    # -- control transfer ------------------------------------------------

    def _enter(self, target: int, *, is_call: bool, return_addr: int) -> None:
        if is_call:
            self.push(return_addr)
            self.shadow.append(ShadowFrame(return_addr, target))
        host = self.proc.host_functions.get(target)
        if host is not None:
            self._invoke_host(host)
        else:
            self.eip = target

    def _invoke_host(self, host: HostFunction) -> None:
        if host.raw:
            host.fn(self.proc, self)
            return
        result = host.fn(self.proc, self)
        ret = self.pop()
        if self.shadow:
            self.shadow.pop()
        if result is not None:
            self.regs[self.abi.return_register] = result & MASK32
        if ret == RETURN_SENTINEL:
            raise _RunComplete
        self.eip = ret

    def invoke_host_toplevel(self, host: HostFunction) -> None:
        """Invoke a host function outside run() (host-initiated call)."""
        try:
            self._invoke_host(host)
        except _RunComplete:
            pass

    def force_transfer(self, addr: int, new_sp: int) -> None:
        """Raw host functions redirect execution here.

        Sets the stack pointer, then either resumes at ``addr`` or — when
        ``addr`` is the host-call sentinel — completes the run, exactly
        like a ``ret`` would.
        """
        self.regs[self.abi.stack_pointer] = new_sp & 0xFFFFFFFF
        if addr == RETURN_SENTINEL:
            raise _RunComplete
        host = self.proc.host_functions.get(addr)
        if host is not None:
            self._invoke_host(host)
            return
        self.eip = addr

    def do_return(self) -> None:
        ret = self.pop()
        if self.shadow:
            self.shadow.pop()
        if ret == RETURN_SENTINEL:
            raise _RunComplete
        self.eip = ret

    def backtrace(self, limit: int = 32) -> List[int]:
        """Return addresses of callees, innermost first."""
        return [f.callee_addr for f in reversed(self.shadow[-limit:])]

    # -- host-call argument access -----------------------------------------

    def host_arg(self, index: int) -> int:
        """Read argument ``index`` of the current host call (signed)."""
        if self.abi.arg_registers:
            return sgn32(self.regs[self.abi.arg_registers[index]])
        sp = self.regs[self.abi.stack_pointer]
        return self.mem.read_i32(sp + 4 + 4 * index)

    # -- execution ----------------------------------------------------------

    def step(self) -> None:
        entry = self.proc.code_cache.get(self.eip)
        if entry is None:
            raise MemoryFault(
                f"execution reached unmapped code at {self.eip:#010x}",
                eip=self.eip)
        insn, size, target = entry
        self.instructions_executed += 1
        if self.tracer is not None:
            self.tracer(self.eip, insn)
        self._execute(insn, self.eip + size, target)

    def _execute(self, insn: Instruction, next_eip: int,
                 target: Optional[int]) -> None:
        """Decode-and-branch one instruction (also the generic fallback
        for operand shapes the block compiler leaves alone)."""
        m = insn.mnemonic
        ops = insn.operands

        if m == "mov":
            self._write(ops[0], self._read(ops[1]))
        elif m == "lea":
            self._write(ops[0], self._mem_addr(ops[1]))
        elif m in ("add", "sub", "and", "or", "xor", "imul", "shl", "shr"):
            a = self._read(ops[0])
            b = self._read(ops[1])
            if m == "add":
                r = a + b
            elif m == "sub":
                r = a - b
            elif m == "and":
                r = a & b
            elif m == "or":
                r = a | b
            elif m == "xor":
                r = a ^ b
            elif m == "imul":
                r = sgn32(a) * sgn32(b)
            elif m == "shl":
                r = a << (b & 31)
            else:
                r = a >> (b & 31)
            self._write(ops[0], r)
            self._set_flags(sgn32(r))
        elif m == "neg":
            r = -sgn32(self._read(ops[0]))
            self._write(ops[0], r)
            self._set_flags(sgn32(r))
        elif m == "not":
            self._write(ops[0], ~self._read(ops[0]))
        elif m == "inc":
            r = self._read(ops[0]) + 1
            self._write(ops[0], r)
            self._set_flags(sgn32(r))
        elif m == "dec":
            r = self._read(ops[0]) - 1
            self._write(ops[0], r)
            self._set_flags(sgn32(r))
        elif m == "cmp":
            diff = sgn32(self._read(ops[0])) - sgn32(self._read(ops[1]))
            self._set_flags(diff)
        elif m == "test":
            self._set_flags(sgn32(self._read(ops[0]) & self._read(ops[1])))
        elif m == "push":
            self.push(self._read(ops[0]))
        elif m == "pop":
            self._write(ops[0], self.pop())
        elif m == "jmp":
            self.eip = self._branch_target(ops[0], target)
            host = self.proc.host_functions.get(self.eip)
            if host is not None:
                self._invoke_host(host)
            return
        elif m in _JCC_TAKEN:
            if _JCC_TAKEN[m](self.zf, self.sf):
                self.eip = target
                return
        elif m == "call":
            dest = self._branch_target(ops[0], target)
            self.eip = next_eip
            self._enter(dest, is_call=True, return_addr=next_eip)
            return
        elif m == "ret":
            self.do_return()
            return
        elif m == "leave":
            fp = self.abi.frame_pointer
            self.regs[self.abi.stack_pointer] = self.regs[fp]
            self.regs[fp] = self.pop()
        elif m == "nop":
            pass
        elif m == "int":
            self._syscall(ops[0])
        elif m == "hlt":
            raise IllegalInstruction("hlt executed", eip=self.eip)
        else:  # pragma: no cover - defensive
            raise IllegalInstruction(f"unhandled {m}", eip=self.eip)
        self.eip = next_eip

    def _branch_target(self, op, precomputed: Optional[int]) -> int:
        if precomputed is not None:
            return precomputed
        if isinstance(op, Reg):
            return self.regs[op.name]
        if isinstance(op, ImportSlot):
            return self.proc.plt_resolve(self.eip, op.slot)
        raise IllegalInstruction(
            f"bad branch operand {op!r} at {self.eip:#x}", eip=self.eip)

    def _syscall(self, vector_op) -> None:
        vector = self._read(vector_op)
        if vector != 0x80:
            raise IllegalInstruction(
                f"unknown interrupt vector {vector:#x}", eip=self.eip)
        nr = self.regs[self.abi.syscall_number_register]
        # Arguments cross the boundary as raw 32-bit patterns; handlers
        # reinterpret the semantically-signed ones (offsets, statuses).
        args = [self.regs[r] for r in self.abi.syscall_arg_registers]
        result = self.proc.kernel.dispatch(self.proc, nr, args)
        self.regs[self.abi.return_register] = result & MASK32

    # -- the block fast path -------------------------------------------------

    def _compile_block(self, addr: int):
        """Bind the shared template at ``addr`` to this CPU (or record
        that the address has no compilable block)."""
        template = self.proc.block_template(addr)
        if template is None:
            self._blocks[addr] = None
            return None
        rt = self._bindctx
        block = _BoundBlock(template, tuple(b(rt) for b in template.binders))
        self._blocks[addr] = block
        return block

    def _run_block(self, block: "_BoundBlock") -> None:
        """Execute one bound block with exact accounting.

        The step path increments ``instructions_executed`` *before*
        executing, so a faulting instruction is counted; ``cum[idx]``
        (guest instructions before closure ``idx``, fused pairs weigh 2)
        plus one reproduces that here.  Data closures never touch
        ``eip`` (it is dead until the next transfer), so on a fault it
        is restored to the faulting instruction's address — the state
        the step path would be in.  The control closure, always last,
        manages ``eip`` itself.
        """
        idx = 0
        try:
            for idx, op in enumerate(block.ops):
                op()
        except _RunComplete:
            self.instructions_executed += block.count
            raise
        except Exception:
            self.instructions_executed += block.cum[idx] + 1
            if idx != block.ctl_index:
                self.eip = block.addrs[idx]
            raise
        self.instructions_executed += block.count
        if block.fallthrough is not None:
            self.eip = block.fallthrough

    def run(self, entry: int, *, max_steps: int = 20_000_000) -> None:
        """Run from ``entry`` until control returns to the sentinel.

        The execution mode — exact step path (tracer attached or blocks
        disabled) versus translated path — is picked once per ``run()``
        entry, not per iteration; attaching a tracer mid-run takes
        effect at the next ``run()``.
        """
        self.eip = entry
        budget = max_steps
        if self.tracer is not None or not self.use_blocks:
            step = self.step
            try:
                while True:
                    step()
                    budget -= 1
                    if budget <= 0:
                        raise RuntimeFault(
                            f"step budget exhausted at {self.eip:#x}",
                            eip=self.eip)
            except _RunComplete:
                return
        blocks = self._blocks
        unset = _UNSET
        coverage = self.coverage
        try:
            while True:
                block = blocks.get(self.eip, unset)
                if block is unset:
                    block = self._compile_block(self.eip)
                if block is None or budget <= block.count:
                    # no block here, or the budget could expire inside
                    # one: single-step so the fault lands on the exact
                    # instruction the step path would report
                    self.step()
                    budget -= 1
                    if budget <= 0:
                        raise RuntimeFault(
                            f"step budget exhausted at {self.eip:#x}",
                            eip=self.eip)
                    continue
                if coverage is not None:
                    addr = self.eip
                    coverage[addr] = coverage.get(addr, 0) + 1
                self._run_block(block)
                budget -= block.count
        except _RunComplete:
            return


class _BoundBlock:
    """A block template bound to one CPU: closures plus accounting."""

    __slots__ = ("ops", "count", "cum", "addrs", "ctl_index", "fallthrough")

    def __init__(self, template, ops) -> None:
        self.ops = ops
        self.count = template.count
        self.cum = template.cum
        self.addrs = template.addrs
        self.ctl_index = template.ctl_index
        self.fallthrough = template.fallthrough


class _Unset:
    """Sentinel distinguishing 'never compiled' from 'not compilable'."""

    __slots__ = ()


_UNSET = _Unset()
