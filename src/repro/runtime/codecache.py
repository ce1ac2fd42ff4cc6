"""Cross-process decode and translation cache.

Campaigns run the same guest images in hundreds of short-lived
processes (§6: one injection experiment per run).  Decoding an image's
text section and translating its hot blocks are pure functions of the
image bytes, the machine, and the load base — so both are cached once
per process *tree* and shared:

* **decoded streams** key on ``(image digest, machine)`` — the
  disassembly is base-independent (addresses are module-relative);
* **module code** keys on ``(image digest, machine, base)`` — the
  predecoded entry dict and the lazily compiled
  :class:`~repro.runtime.blocks.BlockTemplate` objects bake absolute
  addresses (branch targets, the folded TLS base) in.

Templates contain only pure constants (see ``blocks.py``), so sharing
them across guest processes and OS threads is safe; each CPU binds its
own closures.  Mirroring the :class:`~repro.core.store.ProfileStore`
invalidation pattern, everything keys on the image *digest*: a changed
library hashes differently and simply misses, while stale entries for
the old bytes age out of the LRU.

Under the fork-based process backend, children inherit whatever the
parent already decoded and compiled at fork time — warming the cache
before the fan-out (see ``core/exec/engine.py``) makes translation a
one-time cost for the whole campaign.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..binfmt import SharedObject, image_digest
from ..isa import Rel, abi_for, decode_range
from .blocks import BlockTemplate, compile_block

__all__ = ["SharedCodeCache", "ModuleCode", "CODE_CACHE"]

_UNSET = object()


class ModuleCode:
    """Decoded instructions plus block templates for one (image, base)."""

    __slots__ = ("entries", "templates", "_abi", "_tls_base", "_lock",
                 "_cache")

    def __init__(self, entries: Dict[int, Tuple], abi, tls_base: int,
                 cache: "SharedCodeCache") -> None:
        self.entries = entries
        self.templates: Dict[int, Optional[BlockTemplate]] = {}
        self._abi = abi
        self._tls_base = tls_base
        self._lock = threading.Lock()
        self._cache = cache

    def template(self, addr: int) -> Optional[BlockTemplate]:
        """The block template entered at ``addr`` (compiling on first
        request; None is a cached 'not compilable' verdict)."""
        t = self.templates.get(addr, _UNSET)
        if t is not _UNSET:
            self._cache._count("template_hits")
            return t
        with self._lock:
            t = self.templates.get(addr, _UNSET)
            if t is not _UNSET:
                return t
            t = compile_block(addr, self.entries, self._abi, self._tls_base)
            self.templates[addr] = t
        if t is not None:
            self._cache._count("blocks_compiled")
        return t


class SharedCodeCache:
    """Thread-safe LRU of decoded streams and per-base module code."""

    def __init__(self, capacity: int = 128) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._streams: "OrderedDict[Tuple[str, str], tuple]" = OrderedDict()
        self._modules: "OrderedDict[Tuple[str, str, int], ModuleCode]" = \
            OrderedDict()
        self._counters: Dict[str, int] = {}

    # -- stats -------------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def stats(self) -> Dict[str, int]:
        """Counter snapshot: decode_hits/decode_misses (stream layer),
        module_hits/module_misses (per-base layer), blocks_compiled,
        template_hits (a CPU binding an already compiled template),
        and evictions (LRU drops from either layer)."""
        with self._lock:
            out = {"decode_hits": 0, "decode_misses": 0,
                   "module_hits": 0, "module_misses": 0,
                   "blocks_compiled": 0, "template_hits": 0,
                   "evictions": 0}
            out.update(self._counters)
            return out

    def clear(self) -> None:
        with self._lock:
            self._streams.clear()
            self._modules.clear()
            self._counters.clear()

    # -- decode layer -------------------------------------------------------

    def decoded(self, image: SharedObject) -> tuple:
        """The module-relative decoded instruction stream of ``image``."""
        key = (image_digest(image), image.machine)
        with self._lock:
            stream = self._streams.get(key)
            if stream is not None:
                self._streams.move_to_end(key)
                self._counters["decode_hits"] = \
                    self._counters.get("decode_hits", 0) + 1
                return stream
            self._counters["decode_misses"] = \
                self._counters.get("decode_misses", 0) + 1
        abi = abi_for(image.machine)
        stream = tuple(decode_range(image.text, 0, len(image.text), abi))
        with self._lock:
            self._streams[key] = stream
            while len(self._streams) > self.capacity:
                self._streams.popitem(last=False)
                self._counters["evictions"] = \
                    self._counters.get("evictions", 0) + 1
        return stream

    # -- module layer -------------------------------------------------------

    def module_code(self, image: SharedObject, base: int,
                    tls_base: int) -> ModuleCode:
        """Predecoded entries + templates for ``image`` mapped at
        ``base`` (with its TLS block at ``tls_base``)."""
        key = (image_digest(image), image.machine, base)
        with self._lock:
            mc = self._modules.get(key)
            if mc is not None:
                self._modules.move_to_end(key)
                self._counters["module_hits"] = \
                    self._counters.get("module_hits", 0) + 1
                return mc
            self._counters["module_misses"] = \
                self._counters.get("module_misses", 0) + 1
        stream = self.decoded(image)
        entries: Dict[int, Tuple] = {}
        for d in stream:
            target = None
            if d.insn.operands and isinstance(d.insn.operands[0], Rel):
                target = base + d.branch_target()
            entries[base + d.addr] = (d.insn, d.size, target)
        mc = ModuleCode(entries, abi_for(image.machine), tls_base, self)
        with self._lock:
            existing = self._modules.get(key)
            if existing is not None:
                return existing      # lost a benign race; share theirs
            self._modules[key] = mc
            while len(self._modules) > self.capacity:
                self._modules.popitem(last=False)
                self._counters["evictions"] = \
                    self._counters.get("evictions", 0) + 1
        return mc


#: The process-wide cache instance.  Forked campaign workers inherit its
#: contents; ``clear()`` in tests to isolate stats.
CODE_CACHE = SharedCodeCache()
