"""Fault scenarios: action model, XML language, generators, presets."""

from .generate import (derive_plan_seed, error_codes_from_profile,
                       exhaustive_plan, passthrough_plan, random_plan)
from .model import (ACTION_KINDS, INJECT_ALWAYS, INJECT_EXHAUSTIVE,
                    INJECT_NTH, INJECT_ORDINALS, INJECT_RANDOM, Action,
                    ArgModification, DelayFault, ErrorCode, FrameSpec,
                    FunctionTrigger, PartialWriteFault, Plan, ReturnFault,
                    ShortReadFault, TargetScope, action_from_token)
from .presets import (FILE_IO_FUNCTIONS, IO_FUNCTIONS, MEMORY_FUNCTIONS,
                      SOCKET_IO_FUNCTIONS, file_io_faults, io_faults,
                      memory_faults, socket_io_faults)
from .xml_io import ACCEPTED_SCHEMAS, PLAN_SCHEMA, plan_from_xml, plan_to_xml

__all__ = [
    "Plan", "FunctionTrigger", "FrameSpec", "ArgModification",
    "Action", "ACTION_KINDS", "action_from_token",
    "ReturnFault", "ErrorCode", "DelayFault", "ShortReadFault",
    "PartialWriteFault", "TargetScope",
    "INJECT_NTH", "INJECT_ALWAYS", "INJECT_RANDOM", "INJECT_EXHAUSTIVE",
    "INJECT_ORDINALS",
    "PLAN_SCHEMA", "ACCEPTED_SCHEMAS", "plan_to_xml", "plan_from_xml",
    "exhaustive_plan", "random_plan", "passthrough_plan",
    "derive_plan_seed", "error_codes_from_profile",
    "file_io_faults", "memory_faults", "socket_io_faults", "io_faults",
    "FILE_IO_FUNCTIONS", "MEMORY_FUNCTIONS", "SOCKET_IO_FUNCTIONS",
    "IO_FUNCTIONS",
]
