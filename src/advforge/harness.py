"""Chunked generator-worker orchestration.

The coordinator splits a corpus into balanced chunks, launches one worker
process per chunk under a parallelism cap and an optional load gate, and
watches each worker's log file.  A log that stays unchanged for the stale
window gets its worker killed: the chunk restarts once with a clean output
directory, and a second freeze discards it.  Only chunks that finish
cleanly are merged.

Worker contract: the command template receives {input_dir}, {output_dir}
and {log_file}; the worker reads every file in its input directory, writes
zero or one output per input named <orig_sha256>.bin, and appends progress
lines to its log file.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import signal
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import pe
from .records import Record

TERMINAL_STATES = ("done", "discarded")


class HarnessError(Exception):
    pass


class EmptyInput(HarnessError):
    """No valid PE files to split."""


class CollisionError(HarnessError):
    """Two chunks produced byte-identical files under one name."""


@dataclass(frozen=True)
class HarnessConfig(Record):
    worker_command: str
    chunk_count: int = 2000
    stale_window: float = 600.0
    max_restarts: int = 1
    max_parallel: int = 4
    load_gate: dict | None = None

    def __post_init__(self) -> None:
        if self.chunk_count < 1:
            raise ValueError("chunk_count must be at least 1")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        if self.max_parallel < 1:
            raise ValueError("max_parallel must be at least 1")
        if self.stale_window <= 0:
            raise ValueError("stale_window must be positive")
        for placeholder in ("{input_dir}", "{output_dir}", "{log_file}"):
            if placeholder not in self.worker_command:
                raise ValueError(f"worker_command lacks {placeholder}")
        if self.load_gate is not None and "target_load" not in self.load_gate:
            raise ValueError("load_gate requires target_load")


@dataclass
class WorkerStatus:
    chunk_id: int
    state: str = "pending"
    restarts_used: int = 0
    last_log_activity: float = 0.0
    started_at: float = 0.0


@dataclass(frozen=True)
class ChunkManifest:
    chunks: tuple
    excluded: tuple

    def to_dict(self) -> dict:
        return {"chunks": [{"chunk_id": cid, "files": list(files)}
                           for cid, files in self.chunks],
                "excluded": list(self.excluded)}

    @classmethod
    def from_dict(cls, obj: dict) -> "ChunkManifest":
        return cls(
            chunks=tuple((c["chunk_id"], tuple(c["files"]))
                         for c in obj["chunks"]),
            excluded=tuple(obj["excluded"]))

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1))

    @classmethod
    def load(cls, path) -> "ChunkManifest":
        return cls.from_dict(json.loads(Path(path).read_text()))


def split_dataset(input_dir, chunk_count: int) -> ChunkManifest:
    """Partition valid PE files into balanced chunks (sizes differ by <= 1).

    Invalid files are excluded and logged; the chunk count caps at the
    number of valid files.
    """
    if chunk_count < 1:
        raise ValueError("chunk_count must be at least 1")
    paths = sorted(p for p in Path(input_dir).iterdir() if not p.is_dir())
    valid = []
    excluded = []
    for path in paths:
        try:
            report = pe.validate(path.read_bytes())
        except OSError as exc:
            excluded.append({"path": str(path), "reasons": [str(exc)]})
            continue
        if report.is_valid_pe:
            valid.append(str(path))
        else:
            excluded.append({"path": str(path),
                             "reasons": list(report.reasons)})
    if not valid:
        raise EmptyInput(f"no valid PE files in {input_dir}")
    k = min(chunk_count, len(valid))
    base, extra = divmod(len(valid), k)
    chunks = []
    cursor = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        chunks.append((i, tuple(valid[cursor:cursor + size])))
        cursor += size
    return ChunkManifest(chunks=tuple(chunks), excluded=tuple(excluded))


@dataclass
class _Slot:
    chunk_id: int
    files: tuple
    status: WorkerStatus
    proc: object = None
    log_path: Path = None
    input_dir: Path = None
    output_dir: Path = None
    log_sig: tuple = (-1, -1)


@dataclass
class HarnessSummary:
    chunk_states: dict
    restarts: dict
    wall_time: float
    events: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"chunk_states": {str(k): v for k, v in self.chunk_states.items()},
                "restarts": {str(k): v for k, v in self.restarts.items()},
                "wall_time": self.wall_time,
                "events": self.events}


def _populate_input(input_dir: Path, files) -> None:
    input_dir.mkdir(parents=True, exist_ok=True)
    for src in files:
        dst = input_dir / Path(src).name
        try:
            os.symlink(os.path.abspath(src), dst)
        except OSError:
            shutil.copyfile(src, dst)


def _log_signature(path: Path) -> tuple:
    try:
        st = path.stat()
    except OSError:
        return (-1, -1)
    return (st.st_size, st.st_mtime_ns)


def _kill(proc) -> None:
    """Stop a worker's whole process group: a compound worker command's
    processes would outlive a signal to its shell alone."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGTERM)
    try:
        proc.wait(timeout=2.0)
    except subprocess.TimeoutExpired:
        pass
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def run(config: HarnessConfig, manifest: ChunkManifest, work_dir,
        clock=time.time, sleep=time.sleep, loadavg=None,
        status_stream=None, status_interval: float = 2.0) -> HarnessSummary:
    """Drive every chunk to done or discarded; returns the run summary."""
    chunks_root = Path(work_dir) / "chunks"
    # start empty: copying onto a leftover input link writes through it;
    # rmtree removes the links, not their targets
    if chunks_root.exists():
        shutil.rmtree(chunks_root)
    chunks_root.mkdir(parents=True)
    if loadavg is None:
        loadavg = getattr(os, "getloadavg", None)

    slots = []
    for chunk_id, files in manifest.chunks:
        root = chunks_root / f"chunk_{chunk_id:04d}"
        slot = _Slot(chunk_id=chunk_id, files=files,
                     status=WorkerStatus(chunk_id=chunk_id),
                     log_path=root / "log.txt",
                     input_dir=root / "input",
                     output_dir=root / "output")
        _populate_input(slot.input_dir, files)
        slots.append(slot)

    events = []
    started = clock()
    poll_interval = config.stale_window / 10.0
    last_render = started

    def note(chunk_id, event):
        events.append({"ts": clock(), "chunk_id": chunk_id, "event": event})

    def gate_open() -> bool:
        if config.load_gate is None or loadavg is None:
            return True
        try:
            current = loadavg()[0]
        except OSError:
            return True
        return current <= config.load_gate["target_load"]

    def launch(slot: _Slot) -> None:
        if slot.output_dir.exists():
            shutil.rmtree(slot.output_dir)
        slot.output_dir.mkdir(parents=True)
        if slot.log_path.exists():
            slot.log_path.unlink()
        slot.log_path.touch()
        command = config.worker_command.format(
            input_dir=str(slot.input_dir),
            output_dir=str(slot.output_dir),
            log_file=str(slot.log_path))
        log_handle = open(slot.log_path, "ab")
        try:
            slot.proc = subprocess.Popen(
                command, shell=True, stdout=log_handle, stderr=log_handle,
                start_new_session=True)
        except OSError as exc:
            note(slot.chunk_id, f"spawn-failure:{exc}")
            slot.proc = None
            _fail_attempt(slot)
            return
        finally:
            log_handle.close()
        now = clock()
        slot.status.state = "running"
        slot.status.started_at = now
        slot.status.last_log_activity = now
        slot.log_sig = _log_signature(slot.log_path)
        note(slot.chunk_id, "launch")

    def _fail_attempt(slot: _Slot) -> None:
        """One consumed attempt: restart if the budget allows, else discard."""
        if slot.status.restarts_used < config.max_restarts:
            slot.status.restarts_used += 1
            slot.status.state = "restarting"
            note(slot.chunk_id, "restart")
            launch(slot)
        else:
            slot.status.state = "discarded"
            note(slot.chunk_id, "discard")

    def poll(slot: _Slot) -> None:
        proc = slot.proc
        if proc is None:
            return
        code = proc.poll()
        if code is not None:
            slot.proc = None
            if code == 0:
                slot.status.state = "done"
                note(slot.chunk_id, "done")
            else:
                note(slot.chunk_id, f"exit-error:{code}")
                _fail_attempt(slot)
            return
        sig = _log_signature(slot.log_path)
        now = clock()
        if sig != slot.log_sig:
            slot.log_sig = sig
            slot.status.last_log_activity = now
        elif now - slot.status.last_log_activity >= config.stale_window:
            slot.status.state = "stale"
            note(slot.chunk_id, "stale-kill")
            _kill(proc)
            slot.proc = None
            _fail_attempt(slot)

    try:
        while True:
            running = [s for s in slots if s.status.state == "running"]
            for slot in running:
                poll(slot)
            pending = [s for s in slots if s.status.state == "pending"]
            active = sum(1 for s in slots if s.status.state == "running")
            for slot in pending:
                if active >= config.max_parallel:
                    break
                if not gate_open():
                    note(slot.chunk_id, "defer-load")
                    break
                launch(slot)
                if slot.status.state == "running":
                    active += 1
            if (status_stream is not None
                    and clock() - last_render >= status_interval):
                status_stream.write(render_status(
                    {s.chunk_id: s.status for s in slots}, now=clock()) + "\n")
                last_render = clock()
            if all(s.status.state in TERMINAL_STATES for s in slots):
                break
            sleep(poll_interval)
    finally:
        # workers run in their own sessions, so a Ctrl-C or an error here
        # does not reach them: stop whatever is still running
        for slot in slots:
            if slot.proc is not None:
                _kill(slot.proc)

    return HarnessSummary(
        chunk_states={s.chunk_id: s.status.state for s in slots},
        restarts={s.chunk_id: s.status.restarts_used for s in slots},
        wall_time=clock() - started,
        events=events)


def render_status(statuses: dict, now: float | None = None) -> str:
    """Format a point-in-time status table; never mutates its input."""
    now = time.time() if now is None else now
    lines = [f"{'chunk':>6}  {'state':<10} {'restarts':>8} {'log-age':>9}"]
    for chunk_id in sorted(statuses):
        status = statuses[chunk_id]
        if status.state == "running" and status.last_log_activity:
            age = f"{now - status.last_log_activity:8.1f}s"
        else:
            age = f"{'-':>9}"
        lines.append(f"{chunk_id:>6}  {status.state:<10}"
                     f" {status.restarts_used:>8} {age}")
    return "\n".join(lines)


def merge_outputs(manifest: ChunkManifest, summary: HarnessSummary,
                  work_dir, merged_dir) -> dict:
    """Collect done-chunk outputs into one emptied directory with provenance.

    A filename emitted by two chunks with differing content is kept for
    both under chunk-prefixed names; byte-identical duplicates raise
    CollisionError.  Returns the provenance index mapping merged name to
    {chunk_id, source_sha256}.
    """
    chunks_root = Path(work_dir) / "chunks"
    merged = Path(merged_dir)
    if merged.exists():
        shutil.rmtree(merged)
    merged.mkdir(parents=True)

    emitters: dict = {}  # plain name -> [{chunk_id, digest, merged_name}]
    index: dict = {}

    def prefixed(chunk_id: int, name: str) -> str:
        return f"chunk_{chunk_id:04d}__{name}"

    for chunk_id, _files in manifest.chunks:
        if summary.chunk_states.get(chunk_id) != "done":
            continue
        out_dir = chunks_root / f"chunk_{chunk_id:04d}" / "output"
        if not out_dir.is_dir():
            continue
        for src in sorted(p for p in out_dir.iterdir() if p.is_file()):
            data = src.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            name = src.name
            prior = emitters.setdefault(name, [])
            for entry in prior:
                if entry["digest"] == digest:
                    raise CollisionError(
                        f"{name} emitted identically by chunks "
                        f"{entry['chunk_id']} and {chunk_id}")
            target = name
            if prior:
                first = prior[0]
                if first["merged_name"] == name:
                    renamed = prefixed(first["chunk_id"], name)
                    os.replace(merged / name, merged / renamed)
                    index[renamed] = index.pop(name)
                    first["merged_name"] = renamed
                target = prefixed(chunk_id, name)
            prior.append({"chunk_id": chunk_id, "digest": digest,
                          "merged_name": target})
            (merged / target).write_bytes(data)
            index[target] = {"chunk_id": chunk_id,
                             "source_sha256": Path(name).stem}
    (merged / "provenance.json").write_text(json.dumps(index, indent=1))
    return index
