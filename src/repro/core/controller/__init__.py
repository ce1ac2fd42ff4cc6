"""The LFI controller: stubs, triggers, injection, logging, replay."""

from .controller import (REPORT_SCHEMA, STATUS_CRASHED, STATUS_ERROR_EXIT,
                         STATUS_HUNG, STATUS_NORMAL, STATUS_SIGABRT,
                         STATUS_SIGSEGV, Controller, TestOutcome)
from .injector import Injector
from .logbook import InjectionRecord, Logbook
from .replay import build_replay_plan, replay_script
from .stubs import EVAL_SYMBOL, SHIM_SONAME, generate_c_source, synthesize_shim
from .triggers import Decision, TriggerEngine

__all__ = [
    "Controller", "TestOutcome",
    "STATUS_NORMAL", "STATUS_ERROR_EXIT", "STATUS_SIGSEGV", "STATUS_SIGABRT",
    "STATUS_HUNG", "STATUS_CRASHED", "REPORT_SCHEMA",
    "Injector", "TriggerEngine", "Decision",
    "Logbook", "InjectionRecord",
    "build_replay_plan", "replay_script",
    "synthesize_shim", "generate_c_source", "EVAL_SYMBOL", "SHIM_SONAME",
]
