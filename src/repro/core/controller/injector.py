"""The ``__lfi_eval`` support routine the synthesized stubs call (§5.1).

Stack layout when the host routine gains control (the stub pushed its
function id and called us)::

    [sp]    return address into the stub (discarded)
    [sp+4]  function id
    [sp+8]  the application's return address (the caller of the library)
    [sp+12] stack arguments (x86 flavour; SPARC args live in o0..o5)

On a firing trigger the routine applies argument modifications and side
effects, then either places the injected return value in the ABI return
register and resumes *directly at the caller*, or restores the stack and
tail-jumps to the original function found via RTLD_NEXT — exactly the
semantics of the paper's generated C stubs.

On the block path a dormant call (see ``TriggerEngine.dormancy``) never
gets this far: the block compiler's fused stub asks
:meth:`Injector.bypass`, the host's ``bypass``, and tail-jumps to the
original itself, as the C stub evaluates its trigger without leaving
the stub (§5.1).  On the step path it enters, and
``TriggerEngine.on_call`` counts it without deciding anything.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ...errors import ControllerError, LoaderError
from ...kernel.errno import errno_number
from ...obs.telemetry import NULL_TELEMETRY, as_telemetry
from ...platform import CHANNEL_GLOBAL, CHANNEL_TLS
from ..profiles import LibraryProfile
from ..scenario.model import DelayFault
from .logbook import InjectionRecord, Logbook
from .triggers import Decision, ScopeResolver, TriggerEngine


class Injector:
    """Binds a TriggerEngine to a process as the __lfi_eval host."""

    def __init__(self, engine: TriggerEngine, logbook: Logbook,
                 functions: Sequence[str],
                 telemetry=None) -> None:
        self.engine = engine
        self.logbook = logbook
        self.functions = list(functions)
        self.shim_module_index: Optional[int] = None
        self.test_id = "t0"
        self.injection_count = 0
        self.passthrough_count = 0
        #: process -> stub id -> the original behind that stub (the
        #: stub's static original_fn_ptr), filled on first use
        self._originals: Dict[Any, Dict[int, int]] = {}
        self.telemetry = as_telemetry(telemetry)
        # instruments are created once here so the per-call hot path is
        # a plain method call (a no-op one under NULL_TELEMETRY)
        metrics = self.telemetry.metrics
        self._injections_metric = metrics.counter(
            "repro_injections_total", "Faults injected into return values",
            ("function", "errno"))
        self._passthrough_metric = metrics.counter(
            "repro_passthrough_firings_total",
            "Triggers that fired but let the original run", ("function",))
        self._evaluations_metric = metrics.counter(
            "repro_trigger_evaluations_total",
            "Trigger predicate evaluations", ("function",))
        self._delay_metric = metrics.counter(
            "repro_virtual_delay_ns_total",
            "Virtual nanoseconds added to the kernel clock by "
            "DelayFault injections", ("function",))
        self._partial_io_metric = metrics.counter(
            "repro_partial_io_bytes_total",
            "Bytes trimmed off transfer counts by short-read / "
            "partial-write injections", ("function",))

    # -- host entry points --------------------------------------------------

    def bypass(self, proc, fn_id: int) -> Optional[int]:
        """The stubs' bypass (``HostFunction.bypass``): the original
        behind stub ``fn_id`` when the engine counts this call dormant,
        else None, counting nothing.

        A dormant call owes its call count and nothing else: no frames,
        no evaluation, no telemetry.  The block compiler's fused stub
        asks this before it would enter ``__lfi_eval``.  A call that
        enters anyway (the step path, or this declined) gets the same
        answer from ``TriggerEngine.on_call``, which counts a dormant
        call and decides nothing.  This is the crossing's one call, so
        it applies ``TriggerEngine.dormant_call``'s rule inline, on the
        engine's tables.
        """
        try:
            function = self.functions[fn_id]
        except IndexError:
            return None                 # eval_host names the bad id
        engine = self.engine
        idle = engine._idle
        try:
            left = idle[function]
        except KeyError:
            left = math.inf             # no trigger on it
        if not left:
            return None
        idle[function] = left - 1
        counts = engine._call_counts
        try:
            counts[function] += 1
        except KeyError:
            counts[function] = 1
        try:
            return self._originals[proc][fn_id]
        except KeyError:
            return self._resolve_original(proc, fn_id)

    def eval_host(self, proc, cpu) -> None:
        abi = cpu.abi
        sp = cpu.regs[abi.stack_pointer]
        fn_id = proc.memory.read_u32(sp + 4)
        caller_ret = proc.memory.read_u32(sp + 8)
        try:
            function = self.functions[fn_id]
        except IndexError:
            raise ControllerError(f"stub passed bad function id {fn_id}")

        frames = (self._caller_frames(proc, caller_ret)
                  if self.engine.needs_frames else ())
        args = (self._read_args(proc, cpu, sp)
                if self.engine.needs_args else ())
        resolver = (self._scope_resolver(proc)
                    if self.engine.needs_scope else None)
        evals_before = self.engine.evaluations
        call_number, decision = self.engine.on_call(function, frames, args,
                                                    resolver)
        evaluated = self.engine.evaluations - evals_before
        if evaluated:
            self._evaluations_metric.inc(evaluated, function=function)
        if decision is not None and not frames:
            frames = self._caller_frames(proc, caller_ret)   # for the log

        if decision is not None:
            self._apply_modifications(proc, cpu, sp, decision)

        if decision is not None and decision.injects_return:
            self._log(decision, function, call_number, frames)
            self.injection_count += 1
            self._record_injection(decision, function, call_number)
            self._apply_side_effects(proc, fn_id, decision)
            cpu.regs[abi.return_register] = decision.code.retval & 0xFFFFFFFF
            self._pop_shadow(cpu, 2)
            cpu.force_transfer(caller_ret, sp + 12)
            return

        if decision is not None and decision.action is not None \
                and decision.code is None:
            # delay / partial-I/O: perturb the call, then let the
            # original run — the fault lives in the timing or the
            # transfer size, not in the return value
            self._log(decision, function, call_number, frames)
            self.injection_count += 1
            self._record_injection(decision, function, call_number)
            self._apply_action(proc, cpu, sp, decision.action, function)
        elif decision is not None:
            self.passthrough_count += 1
            self._log(decision, function, call_number, frames)
            self._passthrough_metric.inc(function=function)
            self.telemetry.events.emit(
                "passthrough", severity="debug", function=function,
                call=call_number, test=self.test_id)
        # pass through: restore the stack and jmp to the original
        original = self._resolve_original(proc, fn_id)
        self._pop_shadow(cpu, 1)
        if cpu.shadow:
            cpu.shadow[-1].callee_addr = original
        cpu.force_transfer(original, sp + 8)

    # -- helpers ------------------------------------------------------------

    def _record_injection(self, decision: Decision, function: str,
                          call_number: int) -> None:
        """The injection audit trail: one counter bump + one event."""
        code = decision.code
        errno = (code.errno or "") if code else ""
        self._injections_metric.inc(function=function, errno=errno)
        payload = dict(function=function,
                       errno=(code.errno if code else None),
                       retval=(code.retval if code else None),
                       call=call_number, test=self.test_id)
        if code is None and decision.action is not None:
            # non-return faults add the action token; the classic
            # (retval, errno) event keeps its exact historical shape
            payload["action"] = decision.action.token()
        self.telemetry.events.emit("injection", **payload)

    def _apply_action(self, proc, cpu, sp: int, action,
                      function: str) -> None:
        """Physical effect of a non-return fault action."""
        if isinstance(action, DelayFault):
            # virtual time: the delay is indistinguishable from a slow
            # call because the kernel clock is the only clock there is
            proc.kernel.clock_ns += action.virtual_ns
            self._delay_metric.inc(action.virtual_ns, function=function)
            return
        # short-read / partial-write: clamp the count argument so the
        # kernel itself performs the short transfer and the guest sees
        # a legitimate partial-I/O return value
        count = self._read_one_arg(proc, cpu, sp, action.argument)
        limited = action.limit(count)
        if 0 <= limited < count:
            self._write_one_arg(proc, cpu, sp, action.argument, limited)
            self._partial_io_metric.inc(count - limited,
                                        function=function)

    @staticmethod
    def _scope_resolver(proc) -> ScopeResolver:
        """Maps a call's first argument to (path, peer port).

        A descriptor resolves through the process fd table; a value
        with no fd entry is tried as a path pointer (open/stat/unlink
        take the path first) so path scopes match those calls too.
        """
        def resolve(value: int):
            value &= 0xFFFFFFFF      # argconds read args sign-extended
            entry = proc.kstate.fds.get(value)
            if entry is not None:
                peer = None
                if entry.endpoint is not None:
                    peer = entry.endpoint.port
                elif entry.socket is not None:
                    endpoint = entry.socket.endpoint
                    peer = (endpoint.port if endpoint is not None
                            else entry.socket.port)
                return entry.path, peer
            try:
                text = proc.read_cstr(value)
            except Exception:
                return None, None
            return (text, None) if text.startswith("/") else (None, None)
        return resolve

    def _resolve_original(self, proc, fn_id: int) -> int:
        """The original behind stub ``fn_id`` in ``proc``, resolved
        once per process."""
        table = self._originals.get(proc)
        if table is not None and fn_id in table:
            return table[fn_id]
        if self.shim_module_index is None:
            raise ControllerError("injector not attached to a process")
        function = self.functions[fn_id]
        try:
            addr = proc.resolve_next(function, self.shim_module_index)
        except LoaderError:
            raise ControllerError(
                f"no original definition of {function!r} behind the shim")
        self._originals.setdefault(proc, {})[fn_id] = addr
        return addr

    @staticmethod
    def _pop_shadow(cpu, count: int) -> None:
        for _ in range(count):
            if cpu.shadow:
                cpu.shadow.pop()

    def _caller_frames(self, proc,
                       caller_ret: int) -> List[Tuple[int, Optional[str]]]:
        frames = proc.backtrace_frames()
        # frames[0] is the __lfi_eval call, frames[1] the stub call whose
        # return address is the application call site; rebuild from there.
        trimmed = frames[2:] if len(frames) >= 2 else []
        return [(caller_ret, proc.symbol_for_addr(caller_ret))] + trimmed

    @staticmethod
    def _read_args(proc, cpu, sp: int, count: int = 6):
        """Live call arguments, for argcond triggers (signed 32-bit)."""
        if cpu.abi.arg_registers:
            return [_signed(cpu.regs[r])
                    for r in cpu.abi.arg_registers[:count]]
        return [proc.memory.read_i32(sp + 12 + 4 * i)
                for i in range(count)]

    @staticmethod
    def _read_one_arg(proc, cpu, sp: int, argument: int) -> int:
        """One live argument by 1-based position (signed 32-bit)."""
        if cpu.abi.arg_registers:
            return _signed(cpu.regs[cpu.abi.arg_registers[argument - 1]])
        return proc.memory.read_i32(sp + 12 + 4 * (argument - 1))

    @staticmethod
    def _write_one_arg(proc, cpu, sp: int, argument: int,
                       value: int) -> None:
        if cpu.abi.arg_registers:
            reg = cpu.abi.arg_registers[argument - 1]
            cpu.regs[reg] = value & 0xFFFFFFFF
        else:
            proc.memory.write_i32(sp + 12 + 4 * (argument - 1), value)

    def _apply_modifications(self, proc, cpu, sp: int,
                             decision: Decision) -> None:
        for mod in decision.modifications:
            if cpu.abi.arg_registers:
                reg = cpu.abi.arg_registers[mod.argument - 1]
                cpu.regs[reg] = mod.apply(
                    _signed(cpu.regs[reg])) & 0xFFFFFFFF
            else:
                addr = sp + 12 + 4 * (mod.argument - 1)
                old = proc.memory.read_i32(addr)
                proc.memory.write_i32(addr, mod.apply(old))

    def _apply_side_effects(self, proc, fn_id: int,
                            decision: Decision) -> None:
        errno_name = decision.code.errno if decision.code else None
        if not errno_name:
            return
        value = errno_number(errno_name)
        module = self._errno_module(proc, fn_id)
        if module is None:
            return
        image = module.image
        if proc.platform.errno_channel == CHANNEL_TLS:
            try:
                offset = image.tls_symbol("errno").offset
            except Exception:
                return
            proc.memory.write_u32(module.tls_base + offset, value)
        else:
            try:
                offset = image.data_symbol("errno").offset
            except Exception:
                return
            proc.memory.write_u32(module.data_base + offset, value)

    def _errno_module(self, proc, fn_id: int):
        """The module whose errno the injected fault should set.

        Prefer the module that would have served the call (behind the
        shim); fall back to libc.
        """
        try:
            addr = self._resolve_original(proc, fn_id)
            module = proc.module_for_addr(addr)
            if module is not None and (module.image.tls_symbols
                                       or module.image.data_symbols):
                return module
        except ControllerError:
            pass
        try:
            return proc.module_by_soname("libc.so.6")
        except LoaderError:
            return None

    def _log(self, decision: Decision, function: str, call_number: int,
             frames: Sequence[Tuple[int, Optional[str]]]) -> None:
        code = decision.code
        stack = tuple(
            name if name else format(addr, "#x")
            for addr, name in frames[:4])
        mods = tuple(f"arg{m.argument}{m.op}{m.value}"
                     for m in decision.modifications)
        action = decision.action
        token = (action.token()
                 if action is not None and code is None else None)
        self.logbook.log(InjectionRecord(
            sequence=self.logbook.next_sequence(),
            test_id=self.test_id,
            function=function,
            call_number=call_number,
            retval=code.retval if code else None,
            errno=code.errno if code else None,
            calloriginal=decision.calloriginal,
            modifications=mods,
            stacktrace=stack,
            action=token,
        ))


def _signed(value: int) -> int:
    value &= 0xFFFFFFFF
    return value - (1 << 32) if value & 0x80000000 else value
