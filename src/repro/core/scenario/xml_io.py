"""The XML scenario language (§4), schema ``repro.plan/2``.

Grammar, following the paper's examples plus the generalized action
model:

.. code-block:: xml

    <plan name="..." seed="7" schema="repro.plan/2">
      <function name="readdir" inject="5" retval="0" errno="EBADF"
                calloriginal="false">
        <stacktrace>
          <frame>0xb824490</frame>
          <frame>refresh_files</frame>
        </stacktrace>
      </function>
      <function name="read" inject="20" calloriginal="true">
        <modify argument="3" op="sub" value="10" />
      </function>
      <function name="write" inject="random" probability="0.1"
                calloriginal="false">
        <code retval="-1" errno="ENOSPC" />
        <code retval="-1" errno="EIO" />
      </function>
      <function name="send" inject="3,5,9" calloriginal="true">
        <delay ns="2000000" />
        <scope peer="80" />
      </function>
      <function name="recv" inject="always" calloriginal="true">
        <shortread max_bytes="16" argument="3" />
        <scope path="/www/*.html" />
      </function>
    </plan>

``inject`` is a call ordinal ("5"), a comma-separated ordinal set
("3,5,9"), "always", "random" (with ``probability``) or "exhaustive"
(consecutive calls rotate through the action list).  A
``retval``/``errno`` attribute pair is shorthand for a single
``<code>`` child; ``<delay>``, ``<shortread>`` and ``<partialwrite>``
children add the non-return actions, and an optional ``<scope>`` child
restricts the trigger to a file descriptor, path glob or socket peer.

Writers stamp ``schema="repro.plan/2"``; readers accept ``/1``
documents (which simply predate the action elements) and reject
anything else.  Unknown child elements are a :class:`ScenarioError`
naming the function and the element — not a silent skip.

:func:`plan_to_xml` writes the text directly: a campaign serializes a
plan for every case key and replay script, and building an ElementTree
for each cost more than the rest of the string.  Its output is byte for
byte what ElementTree's serializer (plus the pretty-printing indent)
gave, so case keys and replay scripts did not change.  That serializer
lives on in the tests as the reference the writer is checked against
(``tests/plan_xml_reference.py``).  :func:`plan_from_xml` still parses
with ElementTree.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import List, Tuple

from ...errors import ScenarioError
from ..profiles import ArgCondition
from .model import (INJECT_ALWAYS, INJECT_EXHAUSTIVE, INJECT_NTH,
                    INJECT_ORDINALS, INJECT_RANDOM, Action, ArgModification,
                    DelayFault, FrameSpec, FunctionTrigger,
                    PartialWriteFault, Plan, ReturnFault, ShortReadFault,
                    TargetScope)

#: Schema tag emitted on every written plan.
PLAN_SCHEMA = "repro.plan/2"
#: Schema tags accepted on read: /1 documents predate the action model
#: (and usually carry no schema attribute at all).
ACCEPTED_SCHEMAS = ("repro.plan/1", PLAN_SCHEMA)

#: Child elements a <function> may legally carry.
_KNOWN_CHILDREN = ("code", "delay", "shortread", "partialwrite",
                   "scope", "stacktrace", "modify", "argcond")
#: The partial-I/O action elements and their actions.
_PARTIAL_IO = {"shortread": ShortReadFault,
               "partialwrite": PartialWriteFault}


def plan_to_xml(plan: Plan) -> str:
    """Serialize ``plan``: attributes in a fixed order, two-space
    indentation, ``" />"`` for an element without children, written
    directly (see the module docstring)."""
    head = f'<plan name="{_attr(plan.name)}" schema="{PLAN_SCHEMA}"'
    if plan.seed is not None:
        head += f' seed="{_attr(str(plan.seed))}"'
    if not plan.triggers:
        return head + " />"
    parts = [head, ">"]
    for trigger in plan.triggers:
        _write_trigger(parts, trigger)
    parts.append("\n</plan>")
    return "".join(parts)


def _write_trigger(parts: List[str], trigger: FunctionTrigger) -> None:
    """Append one ``<function>`` element (with its leading newline)."""
    if trigger.mode == INJECT_NTH:
        inject = str(trigger.nth)
    elif trigger.mode == INJECT_ORDINALS:
        inject = ",".join(str(o) for o in trigger.ordinals)
    else:
        inject = trigger.mode
    tag = (f'\n  <function name="{_attr(trigger.function)}" '
           f'inject="{_attr(inject)}"')
    if trigger.mode == INJECT_RANDOM:
        tag += f' probability="{_attr(repr(trigger.probability))}"'
    tag += (' calloriginal="true"' if trigger.calloriginal
            else ' calloriginal="false"')
    children: List[str] = []
    actions = trigger.actions
    if len(actions) == 1 and isinstance(actions[0], ReturnFault):
        # the /1 shorthand: a single bare ReturnFault is retval/errno
        # attributes on the <function>, element-for-element what the
        # /1 writer produced
        tag += f' retval="{_attr(str(actions[0].retval))}"'
        if actions[0].errno:
            tag += f' errno="{_attr(actions[0].errno)}"'
    else:
        children.extend(_action_element(action) for action in actions)
    scope = trigger.scope
    if scope is not None:
        element = "<scope"
        if scope.fd is not None:
            element += f' fd="{_attr(str(scope.fd))}"'
        if scope.path is not None:
            element += f' path="{_attr(scope.path)}"'
        if scope.peer is not None:
            element += f' peer="{_attr(str(scope.peer))}"'
        children.append(element + " />")
    if trigger.stacktrace:
        frames = "".join(
            f"\n      <frame>{_text(frame.value)}</frame>" if frame.value
            else "\n      <frame />" for frame in trigger.stacktrace)
        children.append(f"<stacktrace>{frames}\n    </stacktrace>")
    for mod in trigger.modifications:
        children.append(
            f'<modify argument="{_attr(str(mod.argument))}" '
            f'op="{_attr(mod.op)}" value="{_attr(str(mod.value))}" />')
    for cond in trigger.argconds:
        children.append(
            f'<argcond argument="{_attr(str(cond.arg_index + 1))}" '
            f'op="{_attr(cond.relop)}" value="{_attr(str(cond.value))}" />')
    if not children:
        parts.append(tag + " />")
        return
    parts.append(tag + ">")
    for child in children:
        parts.append("\n    " + child)
    parts.append("\n  </function>")


def _action_element(action: Action) -> str:
    """One action child of a <function> that is not the shorthand."""
    if isinstance(action, ReturnFault):
        element = f'<code retval="{_attr(str(action.retval))}"'
        if action.errno:
            element += f' errno="{_attr(action.errno)}"'
        return element + " />"
    if isinstance(action, DelayFault):
        return f'<delay ns="{_attr(str(action.virtual_ns))}" />'
    tag = ("shortread" if isinstance(action, ShortReadFault)
           else "partialwrite")
    bound = (f'max_bytes="{_attr(str(action.max_bytes))}"'
             if action.max_bytes is not None
             else f'fraction="{_attr(repr(action.fraction))}"')
    return f'<{tag} argument="{_attr(str(action.argument))}" {bound} />'


def _attr(value: str) -> str:
    """Escape an attribute value exactly as ElementTree does."""
    value = _text(value)
    if '"' in value:
        value = value.replace('"', "&quot;")
    if "\r" in value:
        value = value.replace("\r", "&#13;")
    if "\n" in value:
        value = value.replace("\n", "&#10;")
    if "\t" in value:
        value = value.replace("\t", "&#09;")
    return value


def _text(value: str) -> str:
    """Escape element text exactly as ElementTree does."""
    if "&" in value:
        value = value.replace("&", "&amp;")
    if "<" in value:
        value = value.replace("<", "&lt;")
    if ">" in value:
        value = value.replace(">", "&gt;")
    return value


def plan_from_xml(text: str) -> Plan:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ScenarioError(f"bad plan XML: {exc}") from None
    if root.tag != "plan":
        raise ScenarioError(f"expected <plan>, got <{root.tag}>")
    schema = root.get("schema")
    if schema is not None and schema not in ACCEPTED_SCHEMAS:
        raise ScenarioError(
            f"unsupported plan schema {schema!r} "
            f"(accepted: {', '.join(ACCEPTED_SCHEMAS)})")
    seed_text = root.get("seed")
    plan = Plan(name=root.get("name", "scenario"),
                seed=int(seed_text) if seed_text else None)
    for el in root.findall("function"):
        plan.add(_trigger_from_element(el))
    return plan


def _trigger_from_element(el: ET.Element) -> FunctionTrigger:
    name = el.get("name")
    if not name:
        raise ScenarioError("<function> needs a name attribute")
    inject = el.get("inject", "always")
    mode, nth, probability, ordinals = _parse_inject(el, inject)

    # actions in document order (an exhaustive trigger rotates through
    # them, a random one picks by position), the retval shorthand first
    actions: List[Action] = []
    retval_attr = el.get("retval")
    if retval_attr is not None:
        actions.append(ReturnFault(int(retval_attr), el.get("errno")))
    for child in el:
        tag = child.tag
        if tag not in _KNOWN_CHILDREN:
            raise ScenarioError(
                f"function {name!r} carries unknown action element "
                f"<{tag}>")
        if tag == "code":
            retval_text = child.get("retval")
            if retval_text is None:
                raise ScenarioError(f"<code> under {name!r} needs retval")
            actions.append(ReturnFault(int(retval_text), child.get("errno")))
        elif tag == "delay":
            ns_text = child.get("ns")
            if ns_text is None:
                raise ScenarioError(f"<delay> under {name!r} needs ns")
            actions.append(DelayFault(int(ns_text)))
        elif tag in _PARTIAL_IO:
            actions.append(_partial_io_from_element(
                name, tag, _PARTIAL_IO[tag], child))

    scope = None
    scope_el = el.find("scope")
    if scope_el is not None:
        fd_text = scope_el.get("fd")
        peer_text = scope_el.get("peer")
        try:
            scope = TargetScope(
                fd=int(fd_text) if fd_text is not None else None,
                path=scope_el.get("path"),
                peer=int(peer_text) if peer_text is not None else None)
        except ScenarioError:
            raise ScenarioError(
                f"<scope> under {name!r} needs at least one of fd=, "
                f"path= or peer=") from None

    frames: List[FrameSpec] = []
    st = el.find("stacktrace")
    if st is not None:
        frames = [FrameSpec(frame.text or "")
                  for frame in st.findall("frame")]

    mods = [ArgModification(argument=int(m.get("argument", "0")),
                            op=m.get("op", "set"),
                            value=int(m.get("value", "0")))
            for m in el.findall("modify")]

    argconds = []
    for c in el.findall("argcond"):
        argument = int(c.get("argument", "0"))
        if argument < 1:
            raise ScenarioError("<argcond> arguments are 1-based")
        argconds.append(ArgCondition(arg_index=argument - 1,
                                     relop=c.get("op", "=="),
                                     value=int(c.get("value", "0"))))

    calloriginal = el.get("calloriginal", "false").lower() == "true"
    return FunctionTrigger(
        function=name, mode=mode, nth=nth, probability=probability,
        actions=tuple(actions), calloriginal=calloriginal,
        stacktrace=tuple(frames), modifications=tuple(mods),
        argconds=tuple(argconds), ordinals=ordinals, scope=scope)


def _partial_io_from_element(name: str, tag: str, cls, io_el: ET.Element):
    max_text = io_el.get("max_bytes")
    fraction_text = io_el.get("fraction")
    if (max_text is None) == (fraction_text is None):
        raise ScenarioError(
            f"<{tag}> under {name!r} needs exactly one of max_bytes= "
            f"or fraction=")
    try:
        return cls(
            max_bytes=int(max_text) if max_text is not None else None,
            fraction=(float(fraction_text)
                      if fraction_text is not None else None),
            argument=int(io_el.get("argument", "3")))
    except ValueError as exc:
        raise ScenarioError(
            f"<{tag}> under {name!r} is malformed: {exc}") from None


def _parse_inject(el: ET.Element,
                  inject: str) -> Tuple[str, int, float, Tuple[int, ...]]:
    if inject == INJECT_ALWAYS:
        return INJECT_ALWAYS, 0, 0.0, ()
    if inject == INJECT_EXHAUSTIVE:
        return INJECT_EXHAUSTIVE, 0, 0.0, ()
    if inject == INJECT_RANDOM:
        # agree with the builder path: FunctionTrigger validation
        # rejects probability <= 0, so a missing attribute must not
        # silently parse as 0.0 and fail later with less context
        name = el.get("name", "?")
        probability_text = el.get("probability")
        if probability_text is None:
            raise ScenarioError(
                f"random trigger for {name!r} needs a probability "
                f"attribute (0 < probability <= 1)")
        try:
            probability = float(probability_text)
        except ValueError:
            raise ScenarioError(
                f"random trigger for {name!r} has a bad probability "
                f"{probability_text!r}") from None
        return INJECT_RANDOM, 0, probability, ()
    if "," in inject:
        try:
            ordinals = tuple(int(part) for part in inject.split(","))
        except ValueError:
            raise ScenarioError(
                f"bad inject value {inject!r}") from None
        return INJECT_ORDINALS, 0, 0.0, ordinals
    try:
        return INJECT_NTH, int(inject), 0.0, ()
    except ValueError:
        raise ScenarioError(f"bad inject value {inject!r}") from None

