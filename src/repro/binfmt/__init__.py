"""SELF binary container and binutils-style inspection tools."""

from .image import (KIND_EXEC, KIND_KERNEL, KIND_SHARED, MAGIC, SharedObject,
                    Symbol, image_digest, text_digest)
from .tools import (export_index, exported_function_count,
                    find_symbol_definitions, ldd, nm, objdump,
                    objdump_function, strip)

__all__ = [
    "SharedObject", "Symbol", "MAGIC", "image_digest", "text_digest",
    "KIND_SHARED", "KIND_EXEC", "KIND_KERNEL",
    "nm", "objdump", "objdump_function", "ldd", "strip",
    "export_index", "exported_function_count", "find_symbol_definitions",
]
