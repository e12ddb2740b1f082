"""Pieces shared by the workloads: the forge call, outcomes, machine facts."""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
from dataclasses import dataclass, field
from pathlib import Path

SUBCOMMANDS_WITH_ACTION = ("harness", "poison")


@dataclass
class Outcome:
    """What the checks found in one pass's outputs.

    ``work`` is the count the end-to-end throughput divides by wall time;
    ``facts`` holds per-layer values read from the outputs.
    """

    attempted: int = 0
    failed: int = 0
    work: int = 0
    problems: list = field(default_factory=list)
    facts: dict = field(default_factory=dict)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def merge(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.work += other.work
        self.problems.extend(other.problems)


def subcommand(argv) -> str:
    """``forge`` argv -> span name suffix, e.g. ``harness_run``."""
    if argv[0] == "--config":
        argv = argv[2:]
    words = [a for a in argv if not a.startswith("-")]
    if words[0] in SUBCOMMANDS_WITH_ACTION:
        return f"{words[0]}_{words[1]}"
    return words[0]


class Forge:
    """Runs ``forge`` in this process through ``advforge.cli.dispatch``.

    Output the program prints is captured and returned, so it neither
    mixes with the benchmark's result line nor costs terminal writes.
    With a tracer, each call is one ``cli.<subcommand>`` span.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer

    def __call__(self, argv) -> tuple[int, str]:
        from advforge import cli

        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        span = (self.tracer.span(f"cli.{subcommand(argv)}") if self.tracer
                else contextlib.nullcontext())
        with span, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.dispatch(argv)
        if code != 0:
            sys.stderr.write(err.getvalue())
        return code, out.getvalue()


def write_json(path, obj) -> Path:
    path = Path(path)
    path.write_text(json.dumps(obj))
    return path


def read_jsonl(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def write_jsonl(path, rows) -> Path:
    path = Path(path)
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return path


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest reaped
    child, in MiB (Linux reports ru_maxrss in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def machine_facts() -> dict:
    import numpy as np

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__}
