"""Reverse constant propagation over the product graph G' (§3.1).

For every write to the ABI return location that reaches a ``ret``, the
analyzer searches *backwards* through ``G'(V × locations)``: nodes are
(basic block, location) pairs, expanded on demand, exactly as the paper
describes.  Constants reaching the return location become error-return
candidates.  Three writer classes exist:

* direct constants (``mov eax, imm`` / ``or eax, -1`` / ``xor eax, eax``),
* dependent functions — direct calls recurse into the callee (possibly in
  another library, via the import table), and "we consider all of the
  dependent function's return values to be propagated",
* system calls — ``int 0x80`` contributes the error constants found by
  statically analyzing the kernel image's handler for that syscall number.

Branch-edge constraints (``cmp loc, imm`` + ``jcc``) prune constants that
cannot flow along an edge; this is what keeps a syscall wrapper's kernel
error constants from leaking into its *success* path, while the
``or eax, 0xffffffff`` on the error path still yields -1.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ...binfmt import SharedObject
from ...binfmt.image import KIND_KERNEL
from ...errors import ProfilerError
from ...isa import Abi, Imm, ImportSlot, Mem, Reg, Rel, abi_for
from ...isa.instructions import Decoded
from ...platform import Platform
from ..profiles import ArgCondition, SideEffect, merge_side_effects
from .cfg import BasicBlock, Cfg, CfgStats, build_cfg

#: Cap on recursion depth through dependent functions; §6.2 reports the
#: hop count "always 3 or less" in practice, we allow slack.
MAX_HOPS = 12

#: Cap on distinct G' nodes visited per return-location walk.
MAX_NODES = 20_000

Location = Tuple[str, object]          # ("reg", name) | ("slot", disp)
Transform = Tuple[str, int]            # (op, imm)
Constraint = Tuple[str, int]           # (relop, imm) on the final value

_NEGATE_REL = {"==": "!=", "!=": "==", "<": ">=", ">=": "<",
               "<=": ">", ">": "<="}
_TAKEN_REL = {"jz": "==", "jnz": "!=", "jl": "<", "js": "<",
              "jge": ">=", "jns": ">=", "jle": "<=", "jg": ">"}


def _satisfies(value: int, constraints: Sequence[Constraint]) -> bool:
    for rel, imm in constraints:
        ok = {"==": value == imm, "!=": value != imm,
              "<": value < imm, "<=": value <= imm,
              ">": value > imm, ">=": value >= imm}[rel]
        if not ok:
            return False
    return True


_MASK32 = 0xFFFFFFFF


def _sgn32(value: int) -> int:
    """Reinterpret a 32-bit pattern as signed, as the emulator does."""
    value &= _MASK32
    return value - (1 << 32) if value & 0x80000000 else value


def _apply_transforms(value: int, transforms: Sequence[Transform]) -> int:
    # transforms are collected innermost-last during the backward scan;
    # execution order is the reverse (tuples reverse directly — no copy)
    for op, imm in reversed(transforms):
        if op == "add":
            value = value + imm
        elif op == "sub":
            value = value - imm
        elif op == "neg":
            value = -value
        elif op == "imul":
            value = value * imm
        elif op == "shl":
            # Cpu.step shifts the 32-bit pattern and masks the result
            value = _sgn32((value & _MASK32) << (imm & 31))
        elif op == "shr":
            # logical right shift of the 32-bit pattern (-1 >> 1 is
            # 0x7fffffff in the emulator, not -1)
            value = _sgn32((value & _MASK32) >> (imm & 31))
    return value


@dataclass(frozen=True)
class ConstEntry:
    """One constant that can reach the return location."""

    value: int
    effects: Tuple[SideEffect, ...]
    via: str            # direct | callee | kernel
    hops: int
    path: Tuple[int, ...] = ()     # block starts in *this* function
    conditions: Tuple[ArgCondition, ...] = ()


@dataclass
class FunctionAnalysis:
    """Propagation result for one function."""

    entries: List[ConstEntry] = field(default_factory=list)
    indirect_influence: bool = False
    truncated: bool = False
    max_hops: int = 0

    def const_values(self) -> List[int]:
        return sorted({e.value for e in self.entries})


class AnalysisContext:
    """Shared state for profiling a set of libraries on one platform.

    ``libraries`` maps sonames to images (the closure ``ldd`` found);
    ``kernel_image`` is the platform's kernel (§3.1 kernel analysis).
    """

    def __init__(self, platform: Platform,
                 libraries: Dict[str, SharedObject],
                 kernel_image: Optional[SharedObject] = None,
                 *, use_edge_constraints: bool = True,
                 infer_arg_conditions: bool = False) -> None:
        self.platform = platform
        self.abi: Abi = abi_for(platform.machine)
        self.libraries = dict(libraries)
        self.kernel_image = kernel_image
        #: path-sensitivity on cmp/jcc guards; disable for ablation only
        self.use_edge_constraints = use_edge_constraints
        #: the §3.1 future-work extension (see ArgCondition)
        self.infer_arg_conditions = infer_arg_conditions
        self.stats = CfgStats()
        self._cfgs: Dict[Tuple[str, int], Cfg] = {}
        self._memo: Dict[Tuple[str, int], FunctionAnalysis] = {}
        # cycle detection is per recursive walk, hence per thread: when
        # two threads share one context, a walk in progress on one
        # thread must not make the other thread's walk think it is
        # recursing
        self._local = threading.local()
        self._kernel_consts: Dict[int, Tuple[int, ...]] = {}
        self._export_index: Dict[str, Tuple[str, int]] = {}
        for soname, image in self.libraries.items():
            for sym in image.exports:
                self._export_index.setdefault(sym.name, (soname, sym.offset))

    @property
    def _in_progress(self) -> Set[Tuple[str, int]]:
        """This thread's active-walk set (cycle detection)."""
        active = getattr(self._local, "in_progress", None)
        if active is None:
            active = self._local.in_progress = set()
        return active

    # -- kernel image ------------------------------------------------------

    def kernel_error_consts(self, nr: int) -> Tuple[int, ...]:
        """Constants the kernel's handler for syscall ``nr`` can return."""
        if nr in self._kernel_consts:
            return self._kernel_consts[nr]
        consts: Tuple[int, ...] = ()
        image = self.kernel_image
        if image is not None and image.kind == KIND_KERNEL:
            offset = dict(image.syscall_table).get(nr)
            if offset is not None:
                analysis = self._analyze_kernel_handler(image, offset)
                consts = tuple(analysis.const_values())
        self._kernel_consts[nr] = consts
        return consts

    def _analyze_kernel_handler(self, image: SharedObject,
                                offset: int) -> FunctionAnalysis:
        walker = _Walker(self, image, offset, hops=0)
        return walker.analyze()

    # -- function analysis ---------------------------------------------------

    def cfg(self, image: SharedObject, entry: int) -> Cfg:
        key = (image.soname, entry)
        cfg = self._cfgs.get(key)
        if cfg is None:
            cfg = build_cfg(image, entry, self.abi, stats=self.stats)
            self._cfgs[key] = cfg
        return cfg

    def analyze_function(self, soname: str, entry: int,
                         hops: int = 0) -> FunctionAnalysis:
        key = (soname, entry)
        memoized = self._memo.get(key)
        if memoized is not None:
            return memoized
        in_progress = self._in_progress
        if key in in_progress or hops > MAX_HOPS:
            # recursion cycle or depth cap: contribute nothing
            return FunctionAnalysis(truncated=True)
        image = self.libraries.get(soname)
        if image is None:
            return FunctionAnalysis(truncated=True)
        in_progress.add(key)
        try:
            analysis = _Walker(self, image, entry, hops).analyze()
        finally:
            in_progress.discard(key)
        self._attach_side_effects(image, entry, analysis)
        self._memo[key] = analysis
        return analysis

    def _attach_side_effects(self, image: SharedObject, entry: int,
                             analysis: FunctionAnalysis) -> None:
        """Resolve §3.2 side effects for locally-discovered constants.

        Callee-propagated entries already carry the callee's effects;
        direct and kernel-derived constants are scanned along their own
        block chain in this function.
        """
        from .sideeffects import SideEffectScanner

        scanner = None
        resolved: List[ConstEntry] = []
        for item in analysis.entries:
            if item.effects or not item.path:
                resolved.append(item)
                continue
            if scanner is None:
                scanner = SideEffectScanner(self, image,
                                            self.cfg(image, entry))
            effects = scanner.effects_for_path(item.path)
            resolved.append(ConstEntry(item.value, effects, item.via,
                                       item.hops, item.path,
                                       item.conditions))
        analysis.entries = resolved

    def resolve_import(self, image: SharedObject,
                       slot: int) -> Optional[Tuple[str, int]]:
        try:
            symbol = image.imports[slot]
        except IndexError:
            return None
        return self._export_index.get(symbol)


class _Walker:
    """One function's backward walk over G'."""

    def __init__(self, ctx: AnalysisContext, image: SharedObject,
                 entry: int, hops: int) -> None:
        self.ctx = ctx
        self.image = image
        self.entry = entry
        self.hops = hops
        self.abi = ctx.abi
        self.cfg = ctx.cfg(image, entry)
        self.result = FunctionAnalysis()
        self.result.max_hops = hops
        self._visited: Set[Tuple[int, Location]] = set()
        self._nodes = 0

    def analyze(self) -> FunctionAnalysis:
        ret_loc: Location = ("reg", self.abi.return_register)
        if self.cfg.incomplete:
            self.result.indirect_influence = True
        for block in self.cfg.exit_blocks():
            self._visited.clear()
            self._scan(block, len(block.instructions) - 1, ret_loc,
                       (), (), (block.start,), ())
        # deduplicate by value; a condition survives only if EVERY path
        # that produces the value satisfies it
        dedup: Dict[int, ConstEntry] = {}
        for entry in self.result.entries:
            old = dedup.get(entry.value)
            if old is None:
                dedup[entry.value] = entry
                continue
            conditions = tuple(sorted(
                set(old.conditions) & set(entry.conditions),
                key=lambda c: (c.arg_index, c.relop, c.value)))
            if not old.effects and entry.effects:
                base = entry
            elif old.effects and entry.effects and old.path != entry.path:
                merged = merge_side_effects(old.effects + entry.effects)
                base = ConstEntry(entry.value, merged, old.via,
                                  min(old.hops, entry.hops), old.path)
            else:
                base = old
            dedup[entry.value] = ConstEntry(
                base.value, base.effects, base.via, base.hops, base.path,
                conditions)
        self.result.entries = sorted(dedup.values(), key=lambda e: e.value)
        return self.result

    # -- the backward scan ---------------------------------------------------

    def _written_location(self, insn) -> Optional[Location]:
        """Location written by a mov-like first operand, if trackable."""
        dst = insn.operands[0]
        if isinstance(dst, Reg):
            return ("reg", dst.name)
        if isinstance(dst, Mem) and dst.base == self.abi.frame_pointer \
                and dst.index is None and dst.segment is None:
            return ("slot", dst.disp)
        return None

    def _emit(self, value: int, transforms: Tuple[Transform, ...],
              constraints: Tuple[Constraint, ...], via: str, hops: int,
              path: Tuple[int, ...],
              conditions: Tuple[ArgCondition, ...] = (),
              effects: Tuple[SideEffect, ...] = ()) -> None:
        final = _apply_transforms(value, transforms)
        if not _satisfies(final, constraints):
            return
        if self.ctx.infer_arg_conditions and path:
            # guards *dominating* the block where the constant was
            # assigned are part of the condition too (the reverse walk
            # only crosses edges between the writer and the exit)
            conditions = conditions + self._entry_conditions(path[-1])
        self.result.entries.append(
            ConstEntry(final, effects, via, hops, path, conditions))
        self.result.max_hops = max(self.result.max_hops, hops)

    def _entry_conditions(self, block_start: int,
                          depth: int = 6) -> Tuple[ArgCondition, ...]:
        """Argument guards that dominate entry to ``block_start``.

        Walks up single-predecessor chains; at merge points only
        conditions agreed on by *every* incoming edge survive.
        """
        conditions: List[ArgCondition] = []
        cursor = block_start
        for _ in range(depth):
            preds = self.cfg.predecessors(cursor)
            if not preds:
                break
            edge_sets = [
                set(self._edge_arg_condition(self.cfg.blocks[p], cursor))
                for p in preds]
            for cond in set.intersection(*edge_sets):
                if cond not in conditions:
                    conditions.append(cond)
            if len(preds) != 1:
                break
            cursor = preds[0]
        return tuple(conditions)

    def _scan(self, block: BasicBlock, start_index: int, loc: Location,
              transforms: Tuple[Transform, ...],
              constraints: Tuple[Constraint, ...],
              path: Tuple[int, ...],
              conditions: Tuple[ArgCondition, ...] = ()) -> None:
        self._nodes += 1
        if self._nodes > MAX_NODES:
            self.result.truncated = True
            return
        instructions = block.instructions
        i = start_index
        while i >= 0:
            decoded = instructions[i]
            insn = decoded.insn
            m = insn.mnemonic
            if m == "mov":
                written = self._written_location(insn)
                if written == loc:
                    src = insn.operands[1]
                    if isinstance(src, Imm):
                        self._emit(src.value, transforms, constraints,
                                   "direct", self.hops, path, conditions)
                        return
                    if isinstance(src, Reg):
                        loc = ("reg", src.name)
                        i -= 1
                        continue
                    if isinstance(src, Mem) \
                            and src.base == self.abi.frame_pointer \
                            and src.index is None and src.segment is None:
                        loc = ("slot", src.disp)
                        i -= 1
                        continue
                    return  # untracked memory load
            elif m in ("add", "sub", "imul", "shl", "shr"):
                if self._written_location(insn) == loc:
                    src = insn.operands[1]
                    if isinstance(src, Imm):
                        transforms = transforms + ((m, src.value),)
                        i -= 1
                        continue
                    return
            elif m == "or":
                if self._written_location(insn) == loc:
                    src = insn.operands[1]
                    if isinstance(src, Imm) and src.value == -1:
                        # or reg, 0xffffffff: the -1 idiom
                        self._emit(-1, transforms, constraints,
                                   "direct", self.hops, path, conditions)
                    return
            elif m in ("xor", "and", "not"):
                if self._written_location(insn) == loc:
                    if m == "xor" and insn.operands[1] == insn.operands[0]:
                        self._emit(0, transforms, constraints,
                                   "direct", self.hops, path, conditions)
                    return
            elif m == "neg":
                if self._written_location(insn) == loc:
                    transforms = transforms + (("neg", 0),)
                    i -= 1
                    continue
            elif m == "lea":
                if self._written_location(insn) == loc:
                    return  # addresses are not error constants
            elif m in ("inc", "dec"):
                if self._written_location(insn) == loc:
                    transforms = transforms + (("add", 1 if m == "inc"
                                                else -1),)
                    i -= 1
                    continue
            elif m == "pop":
                if self._written_location(insn) == loc:
                    return  # stack-popped temporaries are not propagated
            elif m == "call":
                if self._handle_call(decoded, loc, transforms, constraints,
                                     path, conditions):
                    return
            elif m == "int":
                if loc == ("reg", self.abi.return_register):
                    self._handle_syscall(instructions, i, transforms,
                                         constraints, path, conditions)
                    return
            elif m == "leave":
                if loc[0] == "reg" and loc[1] in (self.abi.stack_pointer,
                                                  self.abi.frame_pointer):
                    return
            i -= 1

        # reached the block head: expand predecessors in G'
        for pred_start in self.cfg.predecessors(block.start):
            key = (pred_start, loc)
            if key in self._visited:
                continue
            self._visited.add(key)
            pred = self.cfg.blocks[pred_start]
            new_constraints = constraints
            if self.ctx.use_edge_constraints:
                new_constraints = constraints + self._edge_constraint(
                    pred, block.start, loc)
            new_conditions = conditions
            if self.ctx.infer_arg_conditions:
                new_conditions = conditions + self._edge_arg_condition(
                    pred, block.start)
            self._scan(pred, len(pred.instructions) - 1, loc,
                       transforms, new_constraints, path + (pred_start,),
                       new_conditions)

    def _edge_constraint(self, pred: BasicBlock, succ_start: int,
                         loc: Location) -> Tuple[Constraint, ...]:
        """cmp loc, imm + jcc edges constrain the propagated value."""
        term = pred.terminator.insn
        rel = _TAKEN_REL.get(term.mnemonic)
        if rel is None or len(pred.instructions) < 2:
            return ()
        cmp_insn = pred.instructions[-2].insn
        if cmp_insn.mnemonic != "cmp":
            return ()
        lhs, rhs = cmp_insn.operands
        if not isinstance(rhs, Imm):
            return ()
        cmp_loc: Optional[Location] = None
        if isinstance(lhs, Reg):
            cmp_loc = ("reg", lhs.name)
        if cmp_loc != loc:
            return ()
        taken_target = pred.terminator.branch_target()
        if succ_start == taken_target:
            return ((rel, rhs.value),)
        return ((_NEGATE_REL[rel], rhs.value),)

    def _edge_arg_condition(self, pred: BasicBlock,
                            succ_start: int) -> Tuple[ArgCondition, ...]:
        """Parameter predicates on cmp/jcc edges (the §3.1 extension).

        Matches the canonical guard shape: the compared register was
        loaded from a parameter home slot earlier in the same block.
        """
        term = pred.terminator.insn
        rel = _TAKEN_REL.get(term.mnemonic)
        if rel is None or len(pred.instructions) < 2:
            return ()
        cmp_insn = pred.instructions[-2].insn
        if cmp_insn.mnemonic != "cmp":
            return ()
        lhs, rhs = cmp_insn.operands
        if not isinstance(rhs, Imm) or not isinstance(lhs, Reg):
            return ()
        arg_index = self._param_loaded_into(pred, lhs.name)
        if arg_index is None:
            return ()
        taken = succ_start == pred.terminator.branch_target()
        relop = rel if taken else _NEGATE_REL[rel]
        return (ArgCondition(arg_index, relop, rhs.value),)

    def _param_loaded_into(self, block: BasicBlock,
                           reg_name: str) -> Optional[int]:
        """Index of the parameter whose home slot last fed ``reg_name``."""
        abi = self.abi
        for decoded in reversed(block.instructions[:-2]):
            insn = decoded.insn
            if insn.mnemonic != "mov" or not insn.operands:
                continue
            dst = insn.operands[0]
            if not isinstance(dst, Reg) or dst.name != reg_name:
                continue
            src = insn.operands[1]
            if isinstance(src, Mem) and src.base == abi.frame_pointer                     and src.index is None and src.segment is None:
                if abi.arg_registers:
                    if -4 * len(abi.arg_registers) <= src.disp <= -4                             and src.disp % 4 == 0:
                        return (-src.disp // 4) - 1
                elif src.disp >= 8 and src.disp % 4 == 0:
                    return (src.disp - 8) // 4
            return None
        return None

    def _handle_call(self, decoded: Decoded, loc: Location,
                     transforms: Tuple[Transform, ...],
                     constraints: Tuple[Constraint, ...],
                     path: Tuple[int, ...],
                     conditions: Tuple[ArgCondition, ...] = ()) -> bool:
        """Returns True when the call terminates this walk."""
        op = decoded.insn.operands[0]
        if isinstance(op, Rel) and decoded.branch_target() == decoded.end:
            return False        # call/pop PIC thunk: not a real call
        if loc[0] == "slot":
            return False        # calls never write frame slots
        if loc != ("reg", self.abi.return_register):
            return True         # scratch registers die across calls
        if isinstance(op, Reg):
            self.result.indirect_influence = True
            return True
        if isinstance(op, Rel):
            callee = (self.image.soname, decoded.branch_target())
        else:
            assert isinstance(op, ImportSlot)
            resolved = self.ctx.resolve_import(self.image, op.slot)
            if resolved is None:
                self.result.truncated = True
                return True
            callee = resolved
        sub = self.ctx.analyze_function(callee[0], callee[1], self.hops + 1)
        if sub.indirect_influence:
            self.result.indirect_influence = True
        if sub.truncated:
            self.result.truncated = True
        for entry in sub.entries:
            self._emit(entry.value, transforms, constraints, "callee",
                       entry.hops + 1, path, conditions,
                       effects=entry.effects)
        return True

    def _handle_syscall(self, instructions: List[Decoded], index: int,
                        transforms: Tuple[Transform, ...],
                        constraints: Tuple[Constraint, ...],
                        path: Tuple[int, ...],
                        conditions: Tuple[ArgCondition, ...] = ()) -> None:
        nr = self._syscall_number(instructions, index)
        if nr is None:
            self.result.truncated = True
            return
        for value in self.ctx.kernel_error_consts(nr):
            self._emit(value, transforms, constraints, "kernel",
                       self.hops + 1, path, conditions)

    def _syscall_number(self, instructions: List[Decoded],
                        index: int) -> Optional[int]:
        nr_reg = ("reg", self.abi.syscall_number_register)
        for j in range(index - 1, -1, -1):
            insn = instructions[j].insn
            if insn.mnemonic == "mov" \
                    and self._written_location(insn) == nr_reg:
                src = insn.operands[1]
                return src.value if isinstance(src, Imm) else None
        return None
