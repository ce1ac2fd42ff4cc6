"""Control-flow graph construction from disassembled binaries (§3.1).

The CFG is built by *exploration from the entry point* (not linear
sweep): the worklist follows direct branches and fall-through edges, so
it works equally on stripped and unstripped libraries — exactly the
property LFI claims.  Indirect branches terminate their block with no
successors; the paper measured only 0.13% of branches to be indirect and
"currently ignores the resulting CFG incompleteness", as do we (the flag
is recorded so the §3.1 statistics can be reproduced).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ...binfmt import SharedObject
from ...errors import DecodingError, ProfilerError
from ...isa import Abi, ImportSlot, Reg, Rel, decode_instruction
from ...isa.instructions import Decoded


@dataclass
class BasicBlock:
    """A maximal straight-line instruction sequence."""

    start: int
    instructions: List[Decoded] = field(default_factory=list)
    successors: Tuple[int, ...] = ()
    has_indirect_branch: bool = False

    @property
    def end(self) -> int:
        last = self.instructions[-1]
        return last.addr + last.size

    @property
    def terminator(self) -> Decoded:
        return self.instructions[-1]

    def is_exit(self) -> bool:
        return self.terminator.insn.mnemonic == "ret"


@dataclass
class Cfg:
    """CFG of one function, addressed by module-relative offsets."""

    entry: int
    blocks: Dict[int, BasicBlock]
    incomplete: bool = False     # an indirect branch cut exploration

    _preds: Optional[Dict[int, List[int]]] = None

    def exit_blocks(self) -> List[BasicBlock]:
        return [b for b in self.blocks.values() if b.is_exit()]

    def predecessors(self, block_start: int) -> List[int]:
        if self._preds is None:
            preds: Dict[int, List[int]] = {start: [] for start in self.blocks}
            for start, block in self.blocks.items():
                for succ in block.successors:
                    preds.setdefault(succ, []).append(start)
            self._preds = preds
        return self._preds.get(block_start, [])

    def instruction_count(self) -> int:
        return sum(len(b.instructions) for b in self.blocks.values())

    def code_size(self) -> int:
        return sum(b.end - b.start for b in self.blocks.values())


@dataclass
class CfgStats:
    """Branch/call indirection statistics for the §3.1 measurements."""

    branches: int = 0
    indirect_branches: int = 0
    calls: int = 0
    indirect_calls: int = 0

    def merge(self, other: "CfgStats") -> None:
        self.branches += other.branches
        self.indirect_branches += other.indirect_branches
        self.calls += other.calls
        self.indirect_calls += other.indirect_calls


def build_cfg(image: SharedObject, entry: int, abi: Abi,
              *, stats: Optional[CfgStats] = None) -> Cfg:
    """Explore the function at module-relative offset ``entry``."""
    text = image.text
    if not (0 <= entry < len(text)):
        raise ProfilerError(
            f"{image.soname}: entry {entry:#x} outside .text")

    # Pass 1: discover instructions and leaders.
    instructions: Dict[int, Decoded] = {}
    leaders: Set[int] = {entry}
    worklist: List[int] = [entry]
    incomplete = False
    local_stats = CfgStats()

    while worklist:
        addr = worklist.pop()
        while addr not in instructions:
            try:
                insn, size = decode_instruction(text, addr, abi)
            except DecodingError:
                # ran off the function or into data; treat as cut point
                incomplete = True
                break
            decoded = Decoded(addr=addr, size=size, insn=insn)
            instructions[addr] = decoded
            m = insn.mnemonic
            if m == "ret" or m == "hlt":
                break
            if m == "jmp":
                op = insn.operands[0]
                local_stats.branches += 1
                if isinstance(op, Rel):
                    target = decoded.branch_target()
                    leaders.add(target)
                    worklist.append(target)
                else:
                    local_stats.indirect_branches += 1
                    incomplete = True
                break
            if insn.is_conditional:
                local_stats.branches += 1
                # garbage bytes can decode to a conditional jump with a
                # non-Rel operand; real assembly never emits one
                if not isinstance(insn.operands[0], Rel):
                    local_stats.indirect_branches += 1
                    incomplete = True
                    break
                target = decoded.branch_target()
                leaders.add(target)
                worklist.append(target)
                leaders.add(addr + size)
                addr += size
                continue
            if m == "call":
                op = insn.operands[0]
                local_stats.calls += 1
                if isinstance(op, Reg):
                    local_stats.indirect_calls += 1
                # fall through past the call (callees are analyzed
                # separately, recursively)
                addr += size
                continue
            addr += size

    # Pass 2: slice into basic blocks.
    blocks: Dict[int, BasicBlock] = {}
    sorted_addrs = sorted(instructions)
    addr_index = {a: i for i, a in enumerate(sorted_addrs)}
    for leader in sorted(leaders):
        if leader not in instructions:
            continue
        block = BasicBlock(start=leader)
        i = addr_index[leader]
        while i < len(sorted_addrs):
            decoded = instructions[sorted_addrs[i]]
            block.instructions.append(decoded)
            nxt = decoded.addr + decoded.size
            m = decoded.insn.mnemonic
            if m in ("ret", "hlt"):
                block.successors = ()
                break
            if m == "jmp":
                op = decoded.insn.operands[0]
                if isinstance(op, Rel):
                    block.successors = (decoded.branch_target(),)
                else:
                    block.successors = ()
                    block.has_indirect_branch = True
                break
            if decoded.insn.is_conditional:
                if not isinstance(decoded.insn.operands[0], Rel):
                    block.successors = ()
                    block.has_indirect_branch = True
                    break
                block.successors = (decoded.branch_target(), nxt)
                break
            if nxt in leaders:
                block.successors = (nxt,)
                break
            if nxt not in instructions:   # decode cut
                block.successors = ()
                break
            i += 1
            continue
        if block.instructions:
            blocks[leader] = block

    if stats is not None:
        stats.merge(local_stats)
    return Cfg(entry=entry, blocks=blocks, incomplete=incomplete)


def direct_call_targets(cfg: Cfg) -> List[int]:
    """Module-relative targets of direct calls (dependent functions)."""
    targets: List[int] = []
    for block in cfg.blocks.values():
        for decoded in block.instructions:
            if decoded.insn.mnemonic != "call":
                continue
            op = decoded.insn.operands[0]
            if isinstance(op, Rel):
                target = decoded.branch_target()
                if target != decoded.addr + decoded.size:  # skip PIC thunk
                    targets.append(target)
    return targets


def import_call_slots(cfg: Cfg) -> List[int]:
    """PLT slots called by this function (cross-library dependents)."""
    slots: List[int] = []
    for block in cfg.blocks.values():
        for decoded in block.instructions:
            if decoded.insn.mnemonic == "call":
                op = decoded.insn.operands[0]
                if isinstance(op, ImportSlot):
                    slots.append(op.slot)
    return slots
