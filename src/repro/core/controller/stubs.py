"""Interceptor-stub synthesis (§5.1).

For every function the plan covers, the controller synthesizes a stub
and packages the stubs into a shim library with the same API as the
originals.  Two artifacts are produced:

* the **shim SELF image** actually executed by the VM — each stub pushes
  its function id and calls the controller's ``__lfi_eval`` support
  routine, which evaluates triggers and either injects (applying side
  effects and returning straight to the caller) or restores the stack
  and tail-jumps to the original, per the paper's stub pseudocode;
* the **C source text** the real tool would compile, emitted verbatim as
  a build artifact for inspection and documentation.
"""

from __future__ import annotations

import functools
from typing import List, Sequence, Tuple

from ...binfmt import SharedObject, Symbol
from ...isa import Imm, ImportSlot, abi_for, assemble, collect_labels, ins, label
from ...platform import Platform

EVAL_SYMBOL = "__lfi_eval"
SHIM_SONAME = "liblfi_shim.so"


def synthesize_shim(functions: Sequence[str],
                    platform: Platform,
                    *, soname: str = SHIM_SONAME,
                    eval_symbol: str = EVAL_SYMBOL,
                    ) -> Tuple[SharedObject, str]:
    """Build the shim image plus its C-source artifact.

    ``eval_symbol`` names the controller support routine the stubs call;
    stacked controllers use distinct symbols so several shims can coexist
    in one process (§5.1), each chaining to the next via RTLD_NEXT.

    Only the soname and the import differ between the shims of one
    function list: the stub text, export table and C source are
    assembled once per (function list, platform) and shared, so every
    campaign case after the first of its function pays for a new
    :class:`SharedObject` and nothing else.
    """
    text, exports, source = _assemble(tuple(functions), platform)
    image = SharedObject(
        soname=soname,
        machine=platform.machine,
        text=text,
        exports=exports,
        imports=(eval_symbol,),
    )
    return image, source


@functools.lru_cache(maxsize=256)
def _assemble(functions: Tuple[str, ...], platform: Platform
              ) -> Tuple[bytes, Tuple[Symbol, ...], str]:
    """The stub text, export table and C source of one function list;
    all three are immutable, so callers share them."""
    abi = abi_for(platform.machine)
    items = []
    for fn_id, name in enumerate(functions):
        items.append(label(f"__stub_{name}"))
        items.append(ins("push", Imm(fn_id)))
        items.append(ins("call", ImportSlot(0)))
        # __lfi_eval never returns here (it redirects the CPU), but a
        # terminator keeps the stub well-formed for disassemblers.
        items.append(ins("ret"))
    text = assemble(items, abi)
    addresses = collect_labels(items)

    ordered = sorted(((addresses[f"__stub_{name}"], name)
                      for name in functions))
    exports: List[Symbol] = []
    for i, (offset, name) in enumerate(ordered):
        end = ordered[i + 1][0] if i + 1 < len(ordered) else len(text)
        exports.append(Symbol(name, offset, end - offset))
    return text, tuple(exports), generate_c_source(functions, platform)


def generate_c_source(functions: Sequence[str],
                      platform: Platform) -> str:
    """The stub source a compiled deployment would build (paper §5.1)."""
    lines = [
        "/* Auto-generated by the LFI controller; do not edit. */",
        "#include <dlfcn.h>",
        '#include "lfi_runtime.h"',
        "",
        f"/* target platform: {platform.name}; interposition via "
        f"{platform.interposition} */",
        "",
    ]
    for name in functions:
        lines += [
            f"int {name}(void) {{",
            "    static void *(*original_fn_ptr)();",
            "    static int call_count;",
            "    call_count++;",
            "    if (!original_fn_ptr)",
            "        original_fn_ptr = (void *(*)())"
            f"dlsym(RTLD_NEXT, \"{name}\");",
            f"    if (eval_trigger(\"{name}\", call_count, call_stack)) {{",
            "        /* determine return_code, side_effects */",
            "        /* apply side_effects */",
            "        return return_code;",
            "    } else {",
            "        /* return stack and registers to orig values */",
            "        __asm__(\"jmp [original_fn_ptr]\");",
            "        /* orig func will return directly to caller */",
            "    }",
            "}",
            "",
        ]
    return "\n".join(lines)
