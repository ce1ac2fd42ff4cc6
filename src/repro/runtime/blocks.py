"""Basic-block closure compiler (the threaded-code fast path).

Straight-line predecoded instruction runs — ending at the first control
transfer — are translated once into lists of specialized Python
closures: operand shapes are dispatched at *compile* time, so the hot
path never re-inspects ``isinstance(op, Reg)``; register names resolve
to list indices, immediates to captured constants, memory operands to
prebuilt effective-address thunks (with the TLS segment base folded in
as a compile-time displacement).  ``cmp``/``test`` immediately followed
by a conditional jump fuse into a single branch closure that computes
the predicate from the unwrapped difference, materializes ZF/SF, and
sets ``eip`` — one closure call for two guest instructions.

Compilation is two-stage so translations can be shared across guest
processes (and OS threads):

1. :func:`compile_block` produces an immutable :class:`BlockTemplate`
   whose ops are *binder* factories ``bind(rt) -> closure`` closing over
   pure constants only — safe to cache per (text digest, machine, base)
   in the cross-process code cache.
2. Each CPU binds the template against its own ``_BindContext`` (the
   register list, memory accessors, host table), yielding the zero-arg
   closures it actually runs.

Semantics contract with ``cpu.Cpu``:

* data closures never touch ``eip`` and fault with registers/memory in
  exactly the state the step path would leave (operand evaluation order
  is preserved);
* the control closure — always last — replicates the step path's
  ``eip`` transitions precisely.  An import call binds its PLT cache
  key when the block is bound but reads the process's PLT cache at
  *run* time (a front-spliced shim flushes it and must win even for
  already compiled calls); a miss resolves through
  ``Process.plt_resolve``, which also raises for an unresolvable slot;
* fused pairs only form when neither fused instruction can fault
  (register/immediate operands, direct targets), so the block's
  instruction accounting never splits a pair.  The one exception is a
  synthesized interception stub (see :func:`_stub_block`), whose closure
  attributes its own faults.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import IllegalInstruction
from ..isa import Imm, ImportSlot, Mem, Reg
from ..isa.instructions import CONTROL_FLOW, JCC_TAKEN
from ..layout import HOST_REGION_BASE
from .cpu import ShadowFrame, _RunComplete
from .memory import MASK32

#: Translation stops after this many instructions even without a control
#: transfer (bounds template size; the next block chains via fallthrough).
MAX_BLOCK_INSNS = 128

_SIGN_BIT = 0x80000000
_WRAP = 0x100000000


class BlockTemplate:
    """One compiled basic block, shareable across processes."""

    __slots__ = ("entry", "binders", "addrs", "cum", "count", "ctl_index",
                 "fallthrough")

    def __init__(self, entry: int, binders: Tuple[Callable, ...],
                 addrs: Tuple[int, ...], cum: Tuple[int, ...], count: int,
                 ctl_index: int, fallthrough: Optional[int]) -> None:
        self.entry = entry
        self.binders = binders          # bind(rt) -> zero-arg closure
        self.addrs = addrs              # guest address per closure
        self.cum = cum                  # guest insns executed before op i
        self.count = count              # guest insns in the whole block
        self.ctl_index = ctl_index      # index of the control op, or -1
        self.fallthrough = fallthrough  # next eip when no control op ran


# -- effective addresses and operand readers --------------------------------


def _ea(op: Mem, abi, tls_base: int):
    """Binder for a memory operand's effective address.

    TLS (`gs:`) references resolve against the module that contains the
    code, which is fixed at compile time — so the segment base folds
    into the displacement and costs nothing at run time.
    """
    disp = op.disp
    if op.segment == "gs":
        disp += tls_base
    scale = op.scale
    base_i = abi.reg_id(op.base) if op.base else None
    index_i = abi.reg_id(op.index) if op.index else None
    if base_i is None and index_i is None:
        const = disp & MASK32
        return lambda rt: (lambda: const)
    if index_i is None:
        def bind(rt):
            v = rt.values
            return lambda: (v[base_i] + disp) & MASK32
        return bind
    def bind(rt):
        v = rt.values
        return lambda: (v[base_i] + v[index_i] * scale + disp) & MASK32
    return bind


def _read_u(op, abi, tls_base: int):
    """Binder for an unsigned (raw 32-bit) operand read, or None."""
    if isinstance(op, Reg):
        i = abi.reg_id(op.name)
        def bind(rt):
            v = rt.values
            return lambda: v[i]
        return bind
    if isinstance(op, Imm):
        const = op.value & MASK32
        return lambda rt: (lambda: const)
    if isinstance(op, Mem):
        ea = _ea(op, abi, tls_base)
        def bind(rt):
            read = rt.read_u32
            a = ea(rt)
            return lambda: read(a())
        return bind
    return None


# -- data instructions -------------------------------------------------------


def _mov(insn, abi, tls_base):
    dst, src = insn.operands
    if isinstance(dst, Reg):
        di = abi.reg_id(dst.name)
        if isinstance(src, Reg):
            si = abi.reg_id(src.name)
            def bind(rt):
                v = rt.values
                def op():
                    v[di] = v[si]
                return op
            return bind
        if isinstance(src, Imm):
            const = src.value & MASK32
            def bind(rt):
                v = rt.values
                def op():
                    v[di] = const
                return op
            return bind
        if isinstance(src, Mem):
            ea = _ea(src, abi, tls_base)
            def bind(rt):
                v = rt.values
                read = rt.read_u32
                a = ea(rt)
                def op():
                    v[di] = read(a())
                return op
            return bind
        return None
    if isinstance(dst, Mem):
        ea = _ea(dst, abi, tls_base)
        if isinstance(src, Reg):
            si = abi.reg_id(src.name)
            def bind(rt):
                v = rt.values
                write = rt.write_u32
                a = ea(rt)
                def op():
                    write(a(), v[si])
                return op
            return bind
        if isinstance(src, Imm):
            const = src.value & MASK32
            def bind(rt):
                write = rt.write_u32
                a = ea(rt)
                def op():
                    write(a(), const)
                return op
            return bind
        if isinstance(src, Mem):
            src_ea = _ea(src, abi, tls_base)
            def bind(rt):
                read = rt.read_u32
                write = rt.write_u32
                a = ea(rt)
                b = src_ea(rt)
                def op():
                    # src read happens before the dst write, as in the
                    # step path (a faulting read must not have stored)
                    write(a(), read(b()))
                return op
            return bind
    return None


def _lea(insn, abi, tls_base):
    dst, src = insn.operands
    if not isinstance(src, Mem) or not isinstance(dst, Reg):
        return None
    di = abi.reg_id(dst.name)
    ea = _ea(src, abi, tls_base)
    def bind(rt):
        v = rt.values
        a = ea(rt)
        def op():
            v[di] = a()
        return op
    return bind


#: Unmasked arithmetic over raw u32 inputs — results are masked (and
#: flags derived from the masked value) in the closures below, matching
#: the step path's write-then-``sgn32``-flags sequence bit for bit.
_ARITH = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "imul": lambda a, b:
        (a - _WRAP if a >= _SIGN_BIT else a)
        * (b - _WRAP if b >= _SIGN_BIT else b),
    "shl": lambda a, b: a << (b & 31),
    "shr": lambda a, b: a >> (b & 31),
}


def _arith(insn, abi, tls_base):
    m = insn.mnemonic
    fn = _ARITH[m]
    dst, src = insn.operands
    if isinstance(dst, Reg):
        di = abi.reg_id(dst.name)
        if isinstance(src, Imm):
            const = src.value & MASK32
            def bind(rt):
                v = rt.values
                cpu = rt.cpu
                def op():
                    r = fn(v[di], const) & MASK32
                    v[di] = r
                    cpu.zf = r == 0
                    cpu.sf = r >= _SIGN_BIT
                return op
            return bind
        if isinstance(src, Reg):
            si = abi.reg_id(src.name)
            def bind(rt):
                v = rt.values
                cpu = rt.cpu
                def op():
                    r = fn(v[di], v[si]) & MASK32
                    v[di] = r
                    cpu.zf = r == 0
                    cpu.sf = r >= _SIGN_BIT
                return op
            return bind
        if isinstance(src, Mem):
            ea = _ea(src, abi, tls_base)
            def bind(rt):
                v = rt.values
                cpu = rt.cpu
                read = rt.read_u32
                a = ea(rt)
                def op():
                    r = fn(v[di], read(a())) & MASK32
                    v[di] = r
                    cpu.zf = r == 0
                    cpu.sf = r >= _SIGN_BIT
                return op
            return bind
        return None
    if isinstance(dst, Mem):
        src_rd = _read_u(src, abi, tls_base)
        if src_rd is None:
            return None
        ea = _ea(dst, abi, tls_base)
        def bind(rt):
            cpu = rt.cpu
            read = rt.read_u32
            write = rt.write_u32
            a = ea(rt)
            b = src_rd(rt)
            def op():
                addr = a()
                r = fn(read(addr), b()) & MASK32
                write(addr, r)
                cpu.zf = r == 0
                cpu.sf = r >= _SIGN_BIT
            return op
        return bind
    return None


def _unary(insn, abi, tls_base):
    m = insn.mnemonic
    (dst,) = insn.operands
    if m == "neg":
        fn = lambda a: -(a - _WRAP) if a >= _SIGN_BIT else -a
        flags = True
    elif m == "not":
        fn = lambda a: ~a
        flags = False
    elif m == "inc":
        fn = lambda a: a + 1
        flags = True
    else:   # dec
        fn = lambda a: a - 1
        flags = True
    if isinstance(dst, Reg):
        di = abi.reg_id(dst.name)
        if flags:
            def bind(rt):
                v = rt.values
                cpu = rt.cpu
                def op():
                    r = fn(v[di]) & MASK32
                    v[di] = r
                    cpu.zf = r == 0
                    cpu.sf = r >= _SIGN_BIT
                return op
            return bind
        def bind(rt):
            v = rt.values
            def op():
                v[di] = fn(v[di]) & MASK32
            return op
        return bind
    if isinstance(dst, Mem):
        ea = _ea(dst, abi, tls_base)
        if flags:
            def bind(rt):
                cpu = rt.cpu
                read = rt.read_u32
                write = rt.write_u32
                a = ea(rt)
                def op():
                    addr = a()
                    r = fn(read(addr)) & MASK32
                    write(addr, r)
                    cpu.zf = r == 0
                    cpu.sf = r >= _SIGN_BIT
                return op
            return bind
        def bind(rt):
            read = rt.read_u32
            write = rt.write_u32
            a = ea(rt)
            def op():
                addr = a()
                write(addr, ~read(addr) & MASK32)
            return op
        return bind
    return None


def _cmp_or_test(insn, abi, tls_base):
    """Standalone (unfused) flag setters."""
    m = insn.mnemonic
    a_rd = _read_u(insn.operands[0], abi, tls_base)
    b_rd = _read_u(insn.operands[1], abi, tls_base)
    if a_rd is None or b_rd is None:
        return None
    if m == "cmp":
        def bind(rt):
            cpu = rt.cpu
            ra = a_rd(rt)
            rb = b_rd(rt)
            def op():
                a = ra()
                b = rb()
                d = ((a - _WRAP) if a >= _SIGN_BIT else a) \
                    - ((b - _WRAP) if b >= _SIGN_BIT else b)
                cpu.zf = d == 0
                cpu.sf = d < 0
            return op
        return bind
    def bind(rt):
        cpu = rt.cpu
        ra = a_rd(rt)
        rb = b_rd(rt)
        def op():
            r = ra() & rb()
            cpu.zf = r == 0
            cpu.sf = r >= _SIGN_BIT
        return op
    return bind


def _push(insn, abi, tls_base):
    (src,) = insn.operands
    spi = abi.reg_id(abi.stack_pointer)
    if isinstance(src, Reg):
        si = abi.reg_id(src.name)
        def bind(rt):
            v = rt.values
            write = rt.write_u32
            def op():
                sp = (v[spi] - 4) & MASK32
                v[spi] = sp
                write(sp, v[si])
            return op
        return bind
    if isinstance(src, Imm):
        const = src.value & MASK32
        def bind(rt):
            v = rt.values
            write = rt.write_u32
            def op():
                sp = (v[spi] - 4) & MASK32
                v[spi] = sp
                write(sp, const)
            return op
        return bind
    if isinstance(src, Mem):
        ea = _ea(src, abi, tls_base)
        def bind(rt):
            v = rt.values
            read = rt.read_u32
            write = rt.write_u32
            a = ea(rt)
            def op():
                val = read(a())     # may fault; sp must not have moved
                sp = (v[spi] - 4) & MASK32
                v[spi] = sp
                write(sp, val)
            return op
        return bind
    return None


def _pop(insn, abi, tls_base):
    (dst,) = insn.operands
    spi = abi.reg_id(abi.stack_pointer)
    if isinstance(dst, Reg):
        di = abi.reg_id(dst.name)
        def bind(rt):
            v = rt.values
            read = rt.read_u32
            def op():
                sp = v[spi]
                val = read(sp)
                v[spi] = (sp + 4) & MASK32
                v[di] = val          # after the bump: pop-into-sp wins
            return op
        return bind
    if isinstance(dst, Mem):
        ea = _ea(dst, abi, tls_base)
        def bind(rt):
            v = rt.values
            read = rt.read_u32
            write = rt.write_u32
            a = ea(rt)
            def op():
                sp = v[spi]
                val = read(sp)
                v[spi] = (sp + 4) & MASK32
                write(a(), val)      # EA sees the post-pop sp
            return op
        return bind
    return None


def _leave(insn, abi, tls_base):
    spi = abi.reg_id(abi.stack_pointer)
    fpi = abi.reg_id(abi.frame_pointer)
    def bind(rt):
        v = rt.values
        read = rt.read_u32
        def op():
            sp = v[fpi]
            v[spi] = sp
            val = read(sp)
            v[spi] = (sp + 4) & MASK32
            v[fpi] = val
        return op
    return bind


def _nop(insn, abi, tls_base):
    def bind(rt):
        def op():
            pass
        return op
    return bind


def _int(insn, abi, tls_base, addr):
    (vec,) = insn.operands
    if not isinstance(vec, Imm) or (vec.value & MASK32) != 0x80:
        return None
    nr_i = abi.reg_id(abi.syscall_number_register)
    arg_is = tuple(abi.reg_id(r) for r in abi.syscall_arg_registers)
    ret_i = abi.reg_id(abi.return_register)
    def bind(rt):
        cpu = rt.cpu
        proc = rt.proc
        v = rt.values
        def op():
            # handlers may inspect eip (and ProcessExit propagates with
            # it), so park it on the int instruction like the step path
            cpu.eip = addr
            # the kernel is read per call, not bound: a recycled process
            # keeps its bound blocks but moves to each case's kernel
            v[ret_i] = proc.kernel.dispatch(
                proc, v[nr_i], [v[i] for i in arg_is]) & MASK32
        return op
    return bind


_DATA_BINDERS = {
    "mov": _mov,
    "lea": _lea,
    "add": _arith, "sub": _arith, "and": _arith, "or": _arith,
    "xor": _arith, "imul": _arith, "shl": _arith, "shr": _arith,
    "neg": _unary, "not": _unary, "inc": _unary, "dec": _unary,
    "cmp": _cmp_or_test, "test": _cmp_or_test,
    "push": _push, "pop": _pop,
    "leave": _leave,
    "nop": _nop,
}


# -- control instructions ----------------------------------------------------


def _control_binder(m, insn, addr, next_eip, target, abi):
    """Binder for the block-ending transfer, or None to leave the
    instruction to the step path."""
    if m == "ret":
        def bind(rt):
            cpu = rt.cpu
            def op():
                cpu.eip = addr
                cpu.do_return()
            return op
        return bind
    if m == "hlt":
        def bind(rt):
            cpu = rt.cpu
            def op():
                cpu.eip = addr
                raise IllegalInstruction("hlt executed", eip=addr)
            return op
        return bind
    if m == "call":
        (op0,) = insn.operands
        if target is not None:
            dest = target
            def bind(rt):
                cpu = rt.cpu
                enter = cpu._enter
                def op():
                    cpu.eip = next_eip
                    enter(dest, is_call=True, return_addr=next_eip)
                return op
            return bind
        if isinstance(op0, Reg):
            ri = abi.reg_id(op0.name)
            def bind(rt):
                cpu = rt.cpu
                v = rt.values
                enter = cpu._enter
                def op():
                    dest = v[ri]
                    cpu.eip = next_eip
                    enter(dest, is_call=True, return_addr=next_eip)
                return op
            return bind
        if isinstance(op0, ImportSlot):
            slot = op0.slot
            def bind(rt):
                cpu = rt.cpu
                resolve = rt.proc.plt_resolve
                cached = rt.plt.get
                key = rt.proc.plt_key(addr, slot)
                enter = cpu._enter
                def op():
                    # read per call: a front-spliced shim flushes the
                    # PLT cache and must win retroactively; a miss
                    # resolves (or fails) as the step path does
                    dest = cached(key)
                    if dest is None:
                        cpu.eip = addr
                        dest = resolve(addr, slot)
                    cpu.eip = next_eip
                    enter(dest, is_call=True, return_addr=next_eip)
                return op
            return bind
        return None
    if m == "jmp":
        (op0,) = insn.operands
        if target is not None:
            dest = target
            if dest < HOST_REGION_BASE:
                # direct intra-module jumps can never land on a host
                # function — skip the host-table probe entirely
                def bind(rt):
                    cpu = rt.cpu
                    def op():
                        cpu.eip = dest
                    return op
                return bind
            def bind(rt):
                cpu = rt.cpu
                hosts = rt.hosts
                def op():
                    cpu.eip = dest
                    host = hosts.get(dest)
                    if host is not None:
                        cpu._invoke_host(host)
                return op
            return bind
        if isinstance(op0, Reg):
            ri = abi.reg_id(op0.name)
            def bind(rt):
                cpu = rt.cpu
                v = rt.values
                hosts = rt.hosts
                def op():
                    dest = v[ri]
                    cpu.eip = dest
                    host = hosts.get(dest)
                    if host is not None:
                        cpu._invoke_host(host)
                return op
            return bind
        if isinstance(op0, ImportSlot):
            slot = op0.slot
            def bind(rt):
                cpu = rt.cpu
                resolve = rt.proc.plt_resolve
                cached = rt.plt.get
                key = rt.proc.plt_key(addr, slot)
                hosts = rt.hosts
                def op():
                    dest = cached(key)
                    if dest is None:
                        cpu.eip = addr
                        dest = resolve(addr, slot)
                    cpu.eip = dest
                    host = hosts.get(dest)
                    if host is not None:
                        cpu._invoke_host(host)
                return op
            return bind
        return None
    # conditional branch
    pred = JCC_TAKEN.get(m)
    if pred is None or target is None:
        return None
    taken = target
    def bind(rt):
        cpu = rt.cpu
        def op():
            cpu.eip = taken if pred(cpu.zf, cpu.sf) else next_eip
        return op
    return bind


def _fused_branch(m, insn, jcc_m, taken, not_taken, abi):
    """One closure for ``cmp/test reg|imm, reg|imm`` + ``jcc``.

    Only non-faulting operand shapes fuse, so the pair executes
    atomically with weight 2 in the block accounting.
    """
    pred = JCC_TAKEN[jcc_m]
    a_op, b_op = insn.operands
    if isinstance(a_op, Mem) or isinstance(b_op, Mem):
        return None
    if m == "cmp":
        # hottest shape first: cmp reg, imm
        if isinstance(a_op, Reg) and isinstance(b_op, Imm):
            ai = abi.reg_id(a_op.name)
            const = b_op.value
            def bind(rt):
                cpu = rt.cpu
                v = rt.values
                def op():
                    a = v[ai]
                    d = ((a - _WRAP) if a >= _SIGN_BIT else a) - const
                    z = d == 0
                    s = d < 0
                    cpu.zf = z
                    cpu.sf = s
                    cpu.eip = taken if pred(z, s) else not_taken
                return op
            return bind
        if isinstance(a_op, Reg) and isinstance(b_op, Reg):
            ai = abi.reg_id(a_op.name)
            bi = abi.reg_id(b_op.name)
            def bind(rt):
                cpu = rt.cpu
                v = rt.values
                def op():
                    a = v[ai]
                    b = v[bi]
                    d = ((a - _WRAP) if a >= _SIGN_BIT else a) \
                        - ((b - _WRAP) if b >= _SIGN_BIT else b)
                    z = d == 0
                    s = d < 0
                    cpu.zf = z
                    cpu.sf = s
                    cpu.eip = taken if pred(z, s) else not_taken
                return op
            return bind
        a_rd = _read_u(a_op, abi, 0)
        b_rd = _read_u(b_op, abi, 0)
        if a_rd is None or b_rd is None:
            return None
        def bind(rt):
            cpu = rt.cpu
            ra = a_rd(rt)
            rb = b_rd(rt)
            def op():
                a = ra()
                b = rb()
                d = ((a - _WRAP) if a >= _SIGN_BIT else a) \
                    - ((b - _WRAP) if b >= _SIGN_BIT else b)
                z = d == 0
                s = d < 0
                cpu.zf = z
                cpu.sf = s
                cpu.eip = taken if pred(z, s) else not_taken
            return op
        return bind
    # test
    a_rd = _read_u(a_op, abi, 0)
    b_rd = _read_u(b_op, abi, 0)
    if a_rd is None or b_rd is None:
        return None
    def bind(rt):
        cpu = rt.cpu
        ra = a_rd(rt)
        rb = b_rd(rt)
        def op():
            r = ra() & rb()
            z = r == 0
            s = r >= _SIGN_BIT
            cpu.zf = z
            cpu.sf = s
            cpu.eip = taken if pred(z, s) else not_taken
        return op
    return bind


def _stub_block(entry: int, code: Dict[int, Tuple], abi
               ) -> Optional[BlockTemplate]:
    """The block at ``entry`` as one closure of weight 2 when it is
    exactly ``push imm32; call [import]``: the shape of every
    synthesized interception stub (§5.1).

    When the resolved callee is a host function whose ``bypass``
    returns an address for the pushed immediate, the call completes
    there as the host's pass-through would: both stack words are
    written, the caller's shadow frame points at that address, SP is
    back at the caller's and control moves on, without entering the
    host.  Otherwise the call proceeds as an ordinary one.  A fault in
    the push counts one instruction with ``eip`` at the push; anything
    raised from the call onward counts both, as on the step path.
    """
    first = code.get(entry)
    if first is None:
        return None
    push, push_size, _ = first
    call_addr = entry + push_size
    second = code.get(call_addr)
    if push.mnemonic != "push" or not isinstance(push.operands[0], Imm) \
            or second is None:
        return None
    call, call_size, target = second
    if call.mnemonic != "call" or target is not None \
            or not isinstance(call.operands[0], ImportSlot):
        return None
    const = push.operands[0].value & MASK32
    slot = call.operands[0].slot
    next_eip = call_addr + call_size
    spi = abi.reg_id(abi.stack_pointer)

    def bind(rt):
        cpu = rt.cpu
        proc = rt.proc
        v = rt.values
        write = rt.write_u32
        resolve = proc.plt_resolve
        cached = rt.plt.get
        key = proc.plt_key(call_addr, slot)
        hosts = rt.hosts
        shadow = cpu.shadow
        enter = cpu._enter
        invoke = cpu._invoke_host

        def op():
            # eip is still at the push, where a fault in it leaves it
            caller_sp = v[spi]
            sp = (caller_sp - 4) & MASK32
            v[spi] = sp
            write(sp, const)
            try:
                dest = cached(key)
                if dest is None:
                    cpu.eip = call_addr
                    dest = resolve(call_addr, slot)
                cpu.eip = next_eip
                host = hosts.get(dest)
                if host is None or host.bypass is None:
                    enter(dest, is_call=True, return_addr=next_eip)
                    return
                ret_sp = (sp - 4) & MASK32
                v[spi] = ret_sp
                write(ret_sp, next_eip)
                original = None
                try:
                    original = host.bypass(proc, const)
                finally:
                    # the step path's frame for the host call, unless
                    # the call completes elsewhere (a bypass that raises
                    # raises inside the host call there)
                    if original is None:
                        shadow.append(ShadowFrame(next_eip, dest))
                if original is None:
                    invoke(host)
                    return
                if shadow:
                    shadow[-1].callee_addr = original
                # the host's tail jump: SP back at the caller's, then
                # the original, which is a function and never the
                # return sentinel
                v[spi] = caller_sp
                if original in hosts:
                    invoke(hosts[original])
                else:
                    cpu.eip = original
            except _RunComplete:
                raise
            except Exception:
                cpu.instructions_executed += 1     # the call counts too
                raise
        return op
    return BlockTemplate(entry, (bind,), (entry,), (0,), 2, 0, None)


# -- the translator ----------------------------------------------------------


def compile_block(entry: int, code: Dict[int, Tuple], abi,
                  tls_base: int) -> Optional[BlockTemplate]:
    """Translate the straight-line run starting at ``entry``.

    ``code`` maps absolute addresses to predecoded
    ``(insn, size, target)`` entries.  Returns None when the entry
    address has no compilable instruction (unmapped, or an operand shape
    only the step path handles) — the CPU caches that verdict and
    single-steps there.
    """
    stub = _stub_block(entry, code, abi)
    if stub is not None:
        return stub
    binders = []
    addrs = []
    weights = []
    ctl_index = -1
    fallthrough: Optional[int] = None
    addr = entry
    while True:
        e = code.get(addr)
        if e is None:
            # the step path raises its unmapped-code fault here, with
            # eip parked exactly at this address
            fallthrough = addr
            break
        insn, size, target = e
        m = insn.mnemonic
        next_eip = addr + size
        if m in CONTROL_FLOW or m == "hlt":
            b = _control_binder(m, insn, addr, next_eip, target, abi)
            if b is None:
                fallthrough = addr
                break
            binders.append(b)
            addrs.append(addr)
            weights.append(1)
            ctl_index = len(binders) - 1
            break
        if m in ("cmp", "test"):
            nxt = code.get(next_eip)
            if nxt is not None and nxt[0].mnemonic in JCC_TAKEN \
                    and nxt[2] is not None:
                fused = _fused_branch(m, insn, nxt[0].mnemonic, nxt[2],
                                      next_eip + nxt[1], abi)
                if fused is not None:
                    binders.append(fused)
                    addrs.append(addr)
                    weights.append(2)
                    ctl_index = len(binders) - 1
                    break
        if m == "int":
            b = _int(insn, abi, tls_base, addr)
        else:
            factory = _DATA_BINDERS.get(m)
            b = factory(insn, abi, tls_base) if factory else None
        if b is None:
            fallthrough = addr
            break
        binders.append(b)
        addrs.append(addr)
        weights.append(1)
        addr = next_eip
        if len(binders) >= MAX_BLOCK_INSNS:
            fallthrough = addr
            break
    if not binders:
        return None
    cum = []
    total = 0
    for w in weights:
        cum.append(total)
        total += w
    return BlockTemplate(entry, tuple(binders), tuple(addrs), tuple(cum),
                         total, ctl_index, fallthrough)


# -- coverage export ---------------------------------------------------------
#
# The CPU counts block dispatches in ``cpu.coverage`` (entry address ->
# count).  These helpers turn that raw map into the stable, serializable
# shape result records carry: hex-keyed counts plus a content digest, so
# two runs covered identically compare equal by a single string.


def coverage_digest(coverage: Dict[int, int]) -> str:
    """Content digest of a block-coverage map (order-independent)."""
    return _digest_sorted(sorted(coverage.items()))


def _digest_sorted(items: List[Tuple[int, int]]) -> str:
    # one hash over one buffer: the bytes are the concatenation of the
    # per-block updates this digest was first defined by
    payload = "".join(["%#x:%s;" % item for item in items])
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


def export_coverage(coverage: Dict[int, int]) -> Dict[str, object]:
    """Serialize a coverage map for a result record.

    Returns ``{"digest", "blocks", "executed", "map"}`` where ``map``
    keys are fixed-width hex entry addresses (sorted, so JSON output is
    byte-stable) and ``executed`` is the total dispatch count.
    """
    items = sorted(coverage.items())
    return {
        "digest": _digest_sorted(items),
        "blocks": len(coverage),
        "executed": sum(coverage.values()),
        "map": {"%#010x" % addr: count for addr, count in items},
    }


def import_coverage(exported: Optional[Dict[str, object]]) -> Dict[int, int]:
    """Inverse of :func:`export_coverage` (tolerates ``None``/legacy)."""
    if not exported:
        return {}
    raw = exported.get("map") or {}
    return {int(addr, 16): int(count) for addr, count in raw.items()}
