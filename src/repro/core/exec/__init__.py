"""Parallel execution: worker pools, the campaign engine, run summaries."""

from .engine import RunSummary, execute_campaign
from .pool import (BACKENDS, PROCESS, SERIAL, TASK_CRASHED, TASK_ERROR,
                   TASK_HUNG, TASK_OK, RemoteTaskError, TaskResult,
                   WorkerPool, resolve_jobs)
from .snapshot import PREFIX_SENTINEL, SnapshotRunner

__all__ = [
    "WorkerPool", "TaskResult", "RemoteTaskError", "resolve_jobs",
    "SERIAL", "PROCESS", "BACKENDS",
    "TASK_OK", "TASK_ERROR", "TASK_HUNG", "TASK_CRASHED",
    "RunSummary", "execute_campaign",
    "SnapshotRunner", "PREFIX_SENTINEL",
]
