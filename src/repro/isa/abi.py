"""Application binary interfaces for the two machine flavours.

The paper stresses (§3.1) that "for most application binary interfaces the
return value is placed in a well-defined location" — ``eax`` for the Intel
ABI — and that the CFG analyses themselves are ABI-independent.  We encode
exactly that split: everything the profiler needs to parameterize per ABI
lives in an :class:`Abi` object (return location, argument passing, frame
conventions), while the analyses consume the ABI abstractly.

Two flavours exist:

* ``x86sim``  — cdecl-like: arguments on the stack at ``[ebp+8+4i]``,
  return value in ``eax``, frame pointer ``ebp``.
* ``sparcsim`` — SPARC-flavoured: arguments in ``o0..o5``, return value in
  ``o0``, frame pointer ``fp``.  (We do not model register windows; the
  point is a *different well-defined return location* so the profiler's
  ABI-independence claim is actually exercised.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

from .operands import Mem, Reg

WORD = 4


@dataclass(frozen=True)
class Abi:
    """Machine + calling-convention description."""

    machine: str
    registers: Tuple[str, ...]
    return_register: str
    stack_pointer: str
    frame_pointer: str
    arg_registers: Tuple[str, ...]   # empty => stack arguments
    scratch: Tuple[str, ...]         # registers codegen may clobber freely
    syscall_number_register: str
    syscall_arg_registers: Tuple[str, ...]

    def reg_id(self, name: str) -> int:
        try:
            return self.registers.index(name)
        except ValueError:
            raise KeyError(f"{name!r} is not a {self.machine} register") \
                from None

    def reg_name(self, reg_id: int) -> str:
        return self.registers[reg_id]

    def arg_slot(self, index: int) -> Union[Reg, Mem]:
        """Location of the ``index``-th argument inside the callee.

        Assumes the standard prologue (``push fp; mov fp, sp``) already
        ran, so on stack-argument machines argument *i* lives at
        ``[fp + 8 + 4*i]`` (saved frame pointer + return address below it).
        """
        if self.arg_registers:
            if index >= len(self.arg_registers):
                raise ValueError(
                    f"{self.machine} passes at most "
                    f"{len(self.arg_registers)} register arguments")
            return Reg(self.arg_registers[index])
        return Mem(base=self.frame_pointer, disp=2 * WORD + WORD * index)

    def param_home(self, index: int) -> Mem:
        """Frame slot where argument *i* lives for the whole function body.

        This is the "well known location" of §3.2: positive ``[ebp+k]``
        offsets on the IA32-style ABI (the caller's pushed arguments), and
        fixed negative frame slots (filled by the prologue from ``o0..o5``)
        on the SPARC-style ABI — the "stack/register combinations in
        general" case.  Both the code generator and the side-effect
        analyzer use this single definition.
        """
        if self.arg_registers:
            return Mem(base=self.frame_pointer, disp=-WORD * (index + 1))
        return Mem(base=self.frame_pointer, disp=2 * WORD + WORD * index)


X86SIM = Abi(
    machine="x86sim",
    registers=("eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi"),
    return_register="eax",
    stack_pointer="esp",
    frame_pointer="ebp",
    arg_registers=(),
    scratch=("eax", "ecx", "edx"),
    syscall_number_register="eax",
    syscall_arg_registers=("ebx", "ecx", "edx", "esi", "edi"),
)

SPARCSIM = Abi(
    machine="sparcsim",
    registers=("o0", "o1", "o2", "o3", "o4", "o5", "o6", "o7",
               "l0", "l1", "l2", "l3", "l4", "l5", "sp", "fp", "g1"),
    return_register="o0",
    stack_pointer="sp",
    frame_pointer="fp",
    arg_registers=("o0", "o1", "o2", "o3", "o4", "o5"),
    scratch=("l0", "l1", "l2"),
    syscall_number_register="g1",
    syscall_arg_registers=("o0", "o1", "o2", "o3", "o4"),
)

_ABIS = {abi.machine: abi for abi in (X86SIM, SPARCSIM)}


def abi_for(machine: str) -> Abi:
    """Return the ABI descriptor for a machine tag (e.g. ``"x86sim"``)."""
    try:
        return _ABIS[machine]
    except KeyError:
        raise KeyError(
            f"unknown machine {machine!r}; known: {sorted(_ABIS)}") from None
