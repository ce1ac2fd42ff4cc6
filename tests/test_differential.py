"""Differential testing: compiled guest code vs. a reference interpreter.

Hypothesis generates random MinC functions; each is (a) evaluated by a
direct Python interpreter over the AST and (b) compiled, loaded and run
on the VM.  Any divergence is a bug in the code generator, assembler,
encoder, loader or CPU — this is the deepest correctness net over the
whole substrate stack.  The same programs also run on the CPU's two
execution paths (per-instruction steps and compiled blocks) under
random step budgets, which must stop both paths on the same
instruction in the same state.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RuntimeFault
from repro.kernel import Kernel
from repro.platform import LINUX_X86, SOLARIS_SPARC
from repro.runtime import Process
from repro.toolchain import LibraryBuilder, minc

MASK = 0xFFFFFFFF


def _sgn(value: int) -> int:
    value &= MASK
    return value - (1 << 32) if value & 0x80000000 else value


# -- reference interpreter ---------------------------------------------------

class _Return(Exception):
    def __init__(self, value: int) -> None:
        self.value = value


def _ref_expr(expr, env: Dict[str, int], params: List[int]) -> int:
    if isinstance(expr, minc.Const):
        return _sgn(expr.value)
    if isinstance(expr, minc.Param):
        return _sgn(params[expr.index])
    if isinstance(expr, minc.Local):
        return _sgn(env[expr.name])
    if isinstance(expr, minc.Neg):
        return _sgn(-_ref_expr(expr.operand, env, params))
    if isinstance(expr, minc.BinOp):
        a = _ref_expr(expr.lhs, env, params)
        b = _ref_expr(expr.rhs, env, params)
        if expr.op == "+":
            return _sgn(a + b)
        if expr.op == "-":
            return _sgn(a - b)
        if expr.op == "*":
            return _sgn(a * b)
        if expr.op == "&":
            return _sgn(a & b)
        if expr.op == "|":
            return _sgn(a | b)
        if expr.op == "^":
            return _sgn(a ^ b)
        if expr.op == "<<":
            return _sgn((a & MASK) << (b & 31))
        return _sgn((a & MASK) >> (b & 31))
    raise NotImplementedError(type(expr))


def _ref_cond(cond: minc.Cond, env, params) -> bool:
    a = _ref_expr(cond.lhs, env, params)
    b = _ref_expr(cond.rhs, env, params)
    return {"==": a == b, "!=": a != b, "<": a < b,
            "<=": a <= b, ">": a > b, ">=": a >= b}[cond.op]


def _ref_stmts(stmts, env, params) -> None:
    for stmt in stmts:
        if isinstance(stmt, minc.Return):
            raise _Return(0 if stmt.value is None
                          else _ref_expr(stmt.value, env, params))
        if isinstance(stmt, minc.Assign):
            env[stmt.name] = _ref_expr(stmt.value, env, params)
        elif isinstance(stmt, minc.If):
            branch = stmt.then if _ref_cond(stmt.cond, env, params) \
                else stmt.orelse
            _ref_stmts(branch, env, params)
        elif isinstance(stmt, minc.While):
            guard = 0
            while _ref_cond(stmt.cond, env, params):
                _ref_stmts(stmt.body, env, params)
                guard += 1
                assert guard < 10_000, "reference interpreter runaway"
        else:
            raise NotImplementedError(type(stmt))


def reference_run(body, params: List[int]) -> int:
    env: Dict[str, int] = {}
    try:
        _ref_stmts(body, env, params)
    except _Return as ret:
        return ret.value
    return 0


# -- program generator -------------------------------------------------------

_SMALL = st.integers(min_value=-500, max_value=500)
_OPS = st.sampled_from(["+", "-", "*", "&", "|", "^"])
_RELS = st.sampled_from(["==", "!=", "<", "<=", ">", ">="])

_LOCALS = ("a", "b", "c")


def _expr(depth: int, defined: tuple):
    leafs = [
        _SMALL.map(minc.Const),
        st.sampled_from([0, 1]).map(minc.Param),
    ]
    if defined:
        leafs.append(st.sampled_from(defined).map(minc.Local))
    leaf = st.one_of(*leafs)
    if depth <= 0:
        return leaf
    sub = _expr(depth - 1, defined)
    return st.one_of(
        leaf,
        st.builds(minc.Neg, sub),
        st.builds(minc.BinOp, _OPS, sub, sub),
    )


def _cond(defined: tuple):
    return st.builds(minc.Cond, _RELS, _expr(1, defined),
                     _expr(1, defined))


@st.composite
def _program(draw):
    stmts: List[minc.Stmt] = []
    defined: tuple = ()
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["assign", "if", "assign", "while"]))
        if kind == "assign":
            name = draw(st.sampled_from(_LOCALS))
            stmts.append(minc.Assign(name, draw(_expr(2, defined))))
            if name not in defined:
                defined = defined + (name,)
        elif kind == "if":
            then = (minc.Assign("a", draw(_expr(1, defined))),)
            orelse = (minc.Assign("a", draw(_expr(1, defined))),)
            stmts.append(minc.If(draw(_cond(defined)), then, orelse))
            if "a" not in defined:
                defined = defined + ("a",)
        else:
            # bounded counting loop, guaranteed to terminate; loop-body
            # assignments do NOT enter `defined` (the loop may run zero
            # times, so reads after it would be uninitialized)
            stmts.append(minc.Assign("c", minc.Const(0)))
            if "c" not in defined:
                defined = defined + ("c",)
            body = (minc.Assign("b", draw(_expr(1, defined))),
                    minc.Assign("c", minc.BinOp("+", minc.Local("c"),
                                                minc.Const(1))))
            stmts.append(minc.While(
                minc.Cond("<", minc.Local("c"),
                          minc.Const(draw(st.integers(0, 6)))), body))
    stmts.append(minc.Return(draw(_expr(2, defined))))
    return tuple(stmts)


def _build(body, platform):
    builder = LibraryBuilder("libdiff.so")
    builder.simple("f", 2, *body)
    return builder.build(platform).image


def _vm_run(body, params: List[int], platform) -> int:
    proc = Process(Kernel(os_name=platform.os), platform)
    proc.load(_build(body, platform))
    return proc.libcall("f", *[p & MASK for p in params])


def _path_run(image, params: List[int], *, use_blocks: bool,
              max_steps: int) -> dict:
    """Everything a budgeted call leaves behind on one execution path."""
    proc = Process(Kernel(os_name=LINUX_X86.os), LINUX_X86)
    proc.load(image)
    cpu = proc.cpu
    cpu.use_blocks = use_blocks
    try:
        result = proc.libcall("f", *[p & MASK for p in params],
                              max_steps=max_steps)
    except RuntimeFault as fault:
        result = str(fault)
    return {"result": result, "regs": cpu.regs.as_dict(), "eip": cpu.eip,
            "flags": (cpu.zf, cpu.sf),
            "instructions": cpu.instructions_executed,
            "memory": cpu.mem.content_digest()}


@given(body=_program(), p0=_SMALL, p1=_SMALL)
@settings(max_examples=120, deadline=None)
def test_vm_matches_reference_x86(body, p0, p1):
    assert _vm_run(body, [p0, p1], LINUX_X86) == \
        reference_run(body, [p0, p1])


@given(body=_program(), p0=_SMALL, p1=_SMALL)
@settings(max_examples=60, deadline=None)
def test_vm_matches_reference_sparc(body, p0, p1):
    assert _vm_run(body, [p0, p1], SOLARIS_SPARC) == \
        reference_run(body, [p0, p1])


@given(body=_program(), p0=_SMALL, p1=_SMALL, data=st.data())
@settings(max_examples=100, deadline=None)
def test_step_and_block_paths_agree_under_budgets(body, p0, p1, data):
    """Budgets at the full instruction count (the run just completes),
    one below it (it faults on the last instruction) and anywhere in
    between (often mid-block) stop both paths in the same state."""
    image = _build(body, LINUX_X86)
    full = _path_run(image, [p0, p1], use_blocks=False,
                     max_steps=1_000_000)
    assert isinstance(full["result"], int), full["result"]
    count = full["instructions"]
    budgets = {count, max(count - 1, 1),
               data.draw(st.integers(1, count), label="max_steps")}
    for budget in sorted(budgets):
        step = _path_run(image, [p0, p1], use_blocks=False,
                         max_steps=budget)
        block = _path_run(image, [p0, p1], use_blocks=True,
                          max_steps=budget)
        assert block == step, f"max_steps={budget}"
    assert step == full                 # the full-count budget completes


@given(body=_program(), p0=_SMALL, p1=_SMALL)
@settings(max_examples=40, deadline=None)
def test_propagation_is_sound_for_constants(body, p0, p1):
    """Whatever the function actually returns at runtime, if it is one
    of the program's literal constants produced by a constant return,
    the profiler must have either found it or marked nothing at all —
    never report a *wrong* constant set that excludes an actually
    returned constant return.

    (Soundness holds only for returns of literal constants; computed
    returns are legitimately absent.)
    """
    from repro.core.profiler import AnalysisContext

    builder = LibraryBuilder("libsound.so")
    builder.simple("f", 2, *body)
    image = builder.build(LINUX_X86).image
    ctx = AnalysisContext(LINUX_X86, {image.soname: image})
    analysis = ctx.analyze_function(image.soname,
                                    image.find_export("f").offset)

    last = body[-1]
    if isinstance(last.value, minc.Const):
        runtime = reference_run(body, [p0, p1])
        if runtime == _sgn(last.value.value):
            assert runtime in analysis.const_values()
