"""The ElementTree plan writer, kept as the reference for ``plan_to_xml``.

``repro.core.scenario.xml_io.plan_to_xml`` writes plan XML directly.
This is the serializer it replaced: an ElementTree build, the
pretty-printing indent and ``ET.tostring``.  Case keys are digests of
this text and journals hold replay scripts in it, so the direct writer
must give the same bytes for every plan; the tests compare the two.
"""

from __future__ import annotations

import hashlib
import xml.etree.ElementTree as ET

from repro.core.scenario.model import (INJECT_NTH, INJECT_ORDINALS,
                                       INJECT_RANDOM, DelayFault,
                                       FunctionTrigger, PartialWriteFault,
                                       Plan, ReturnFault, ShortReadFault)
from repro.core.scenario.xml_io import PLAN_SCHEMA


def reference_plan_to_xml(plan: Plan) -> str:
    root = ET.Element("plan", name=plan.name)
    root.set("schema", PLAN_SCHEMA)
    if plan.seed is not None:
        root.set("seed", str(plan.seed))
    for trigger in plan.triggers:
        el = ET.SubElement(root, "function", name=trigger.function)
        if trigger.mode == INJECT_NTH:
            el.set("inject", str(trigger.nth))
        elif trigger.mode == INJECT_ORDINALS:
            el.set("inject", ",".join(str(o) for o in trigger.ordinals))
        else:
            el.set("inject", trigger.mode)
        if trigger.mode == INJECT_RANDOM:
            el.set("probability", repr(trigger.probability))
        el.set("calloriginal", "true" if trigger.calloriginal else "false")
        _emit_actions(el, trigger)
        if trigger.scope is not None:
            scope_el = ET.SubElement(el, "scope")
            if trigger.scope.fd is not None:
                scope_el.set("fd", str(trigger.scope.fd))
            if trigger.scope.path is not None:
                scope_el.set("path", trigger.scope.path)
            if trigger.scope.peer is not None:
                scope_el.set("peer", str(trigger.scope.peer))
        if trigger.stacktrace:
            st = ET.SubElement(el, "stacktrace")
            for frame in trigger.stacktrace:
                frame_el = ET.SubElement(st, "frame")
                frame_el.text = frame.value
        for mod in trigger.modifications:
            ET.SubElement(el, "modify", argument=str(mod.argument),
                          op=mod.op, value=str(mod.value))
        for cond in trigger.argconds:
            ET.SubElement(el, "argcond",
                          argument=str(cond.arg_index + 1),
                          op=cond.relop, value=str(cond.value))
    _indent(root)
    return ET.tostring(root, encoding="unicode")


def reference_case_digest(case) -> str:
    """``case_digest`` computed over the reference writer's text."""
    text = reference_plan_to_xml(case.plan())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _emit_actions(el: ET.Element, trigger: FunctionTrigger) -> None:
    actions = trigger.actions
    returns = [a for a in actions if isinstance(a, ReturnFault)]
    if len(actions) == 1 and len(returns) == 1:
        el.set("retval", str(returns[0].retval))
        if returns[0].errno:
            el.set("errno", returns[0].errno)
        return
    for action in actions:
        if isinstance(action, ReturnFault):
            code_el = ET.SubElement(el, "code",
                                    retval=str(action.retval))
            if action.errno:
                code_el.set("errno", action.errno)
        elif isinstance(action, DelayFault):
            ET.SubElement(el, "delay", ns=str(action.virtual_ns))
        elif isinstance(action, (ShortReadFault, PartialWriteFault)):
            tag = ("shortread" if isinstance(action, ShortReadFault)
                   else "partialwrite")
            io_el = ET.SubElement(el, tag,
                                  argument=str(action.argument))
            if action.max_bytes is not None:
                io_el.set("max_bytes", str(action.max_bytes))
            else:
                io_el.set("fraction", repr(action.fraction))


def _indent(element: ET.Element, level: int = 0) -> None:
    pad = "\n" + "  " * level
    if len(element):
        if not element.text or not element.text.strip():
            element.text = pad + "  "
        for child in element:
            _indent(child, level + 1)
            if not child.tail or not child.tail.strip():
                child.tail = pad + "  "
        if not element[-1].tail or not element[-1].tail.strip():
            element[-1].tail = pad
    elif level and (not element.tail or not element.tail.strip()):
        element.tail = pad
