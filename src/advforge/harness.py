"""Chunked generator-worker orchestration.

The coordinator splits a corpus into balanced chunks, launches one worker
process per chunk under a parallelism cap, and every ``TICK`` (50 ms)
reaps exited workers and checks each running worker's log file.  A log
that stays unchanged for the stale window gets its worker killed: the
chunk restarts once with a clean output directory, and a second freeze
discards it.  Only chunks that finish cleanly are merged.

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
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from . import pe
from .records import Record, file_row, list_files

# how often the coordinator looks at its running workers: it bounds how
# late a finished worker is noticed; the stale window is checked apart
TICK = 0.05
STATUS_INTERVAL = 2.0  # seconds between tables on a status stream


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


@dataclass
class WorkerStatus:
    """One chunk's record: what ``render_status`` shows, plus the chunk's
    directory, its live worker process and the last seen log signature."""

    chunk_id: int
    state: str = "pending"
    restarts_used: int = 0
    last_log_activity: float = 0.0
    root: Path | None = None
    proc: object = None
    log_sig: tuple = (-1, -1)


@dataclass(frozen=True)
class ChunkManifest:
    chunks: tuple
    excluded: tuple

    def to_dict(self) -> dict:
        return {"chunks": [{"chunk_id": cid, "files": list(files)}
                           for cid, files in self.chunks],
                "excluded": list(self.excluded)}

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1))


def split_dataset(input_dir, chunk_count: int) -> ChunkManifest:
    """Partition valid PE files into balanced chunks (sizes differ by <= 1).

    Invalid or unreadable files are excluded with their reasons; the chunk
    count caps at the number of valid files.
    """
    if chunk_count < 1:
        raise ValueError("chunk_count must be at least 1")
    rows = [file_row(path, lambda _path, data: {
                "reasons": list(pe.validate(data).reasons)})
            for path in list_files(input_dir)]
    valid = [r["path"] for r in rows if r.get("reasons") == []]
    excluded = [{"path": r["path"],
                 "reasons": r.get("reasons") or [r["error"]]}
                for r in rows if r.get("reasons") != []]
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
class HarnessSummary(Record):
    chunk_states: dict
    restarts: dict
    wall_time: float
    events: list = field(default_factory=list)


def _chunk_root(work_dir, chunk_id: int) -> Path:
    return Path(work_dir) / "chunks" / f"chunk_{chunk_id:04d}"


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
        sleep=time.sleep, status_stream=None) -> HarnessSummary:
    """Drive every chunk to done or discarded; returns the run summary."""
    chunks_root = Path(work_dir) / "chunks"
    # start empty: copying onto a leftover input link writes through it;
    # rmtree removes the links, not their targets
    if chunks_root.exists():
        shutil.rmtree(chunks_root)
    chunks_root.mkdir(parents=True)

    statuses = {}
    for chunk_id, files in manifest.chunks:
        root = _chunk_root(work_dir, chunk_id)
        _populate_input(root / "input", files)
        statuses[chunk_id] = WorkerStatus(chunk_id, root=root)
    pending = deque(statuses.values())
    running = []
    events = []
    started = last_render = time.time()

    def note(chunk_id, event):
        events.append(
            {"ts": time.time(), "chunk_id": chunk_id, "event": event})

    def retry(w: WorkerStatus) -> bool:
        """Spend one restart on a failed attempt; with none left, discard."""
        if w.restarts_used < config.max_restarts:
            w.restarts_used += 1
            note(w.chunk_id, "restart")
            return True
        w.state = "discarded"
        note(w.chunk_id, "discard")
        return False

    def launch(w: WorkerStatus) -> None:
        """Start the chunk's worker on an empty output directory and log; a
        failed spawn is a failed attempt."""
        out_dir, log_path = w.root / "output", w.root / "log.txt"
        command = config.worker_command.format(
            input_dir=str(w.root / "input"), output_dir=str(out_dir),
            log_file=str(log_path))
        while True:
            if out_dir.exists():
                shutil.rmtree(out_dir)
            out_dir.mkdir()
            log_path.unlink(missing_ok=True)
            log_path.touch()
            with open(log_path, "ab") as log_handle:
                try:
                    w.proc = subprocess.Popen(
                        command, shell=True, stdout=log_handle,
                        stderr=log_handle, start_new_session=True)
                    break
                except OSError as exc:
                    note(w.chunk_id, f"spawn-failure:{exc}")
            if not retry(w):
                return
        w.state = "running"
        w.last_log_activity = time.time()
        w.log_sig = _log_signature(log_path)
        note(w.chunk_id, "launch")

    def check(w: WorkerStatus) -> None:
        """Reap an exited worker, or kill one whose log has not changed for
        the stale window; a failed attempt relaunches or discards."""
        code = w.proc.poll()
        if code == 0:
            w.proc = None
            w.state = "done"
            note(w.chunk_id, "done")
            return
        if code is not None:
            note(w.chunk_id, f"exit-error:{code}")
        else:
            sig = _log_signature(w.root / "log.txt")
            now = time.time()
            if sig != w.log_sig:
                w.log_sig, w.last_log_activity = sig, now
                return
            if now - w.last_log_activity < config.stale_window:
                return
            note(w.chunk_id, "stale-kill")
            _kill(w.proc)
        w.proc = None
        if retry(w):
            launch(w)

    try:
        while True:
            for w in running:
                check(w)
            running = [w for w in running if w.state == "running"]
            while pending and len(running) < config.max_parallel:
                w = pending.popleft()
                launch(w)
                if w.state == "running":
                    running.append(w)
            if (status_stream is not None
                    and time.time() - last_render >= STATUS_INTERVAL):
                status_stream.write(
                    render_status(statuses, now=time.time()) + "\n")
                last_render = time.time()
            if not (pending or running):
                break
            sleep(TICK)
    finally:
        # workers run in their own sessions, so a Ctrl-C or an error here
        # does not reach them: stop whatever is still running
        for w in statuses.values():
            if w.proc is not None:
                _kill(w.proc)

    return HarnessSummary(
        chunk_states={c: w.state for c, w in statuses.items()},
        restarts={c: w.restarts_used for c, w in statuses.items()},
        wall_time=time.time() - started,
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
    merged = Path(merged_dir)
    if merged.exists():
        shutil.rmtree(merged)
    merged.mkdir(parents=True)

    emitters: dict = {}  # name -> [(chunk_id, path, digest)]
    for chunk_id, _files in manifest.chunks:
        if summary.chunk_states.get(chunk_id) != "done":
            continue
        out_dir = _chunk_root(work_dir, chunk_id) / "output"
        if not out_dir.is_dir():
            continue
        for src in sorted(p for p in out_dir.iterdir() if p.is_file()):
            digest = hashlib.sha256(src.read_bytes()).hexdigest()
            prior = emitters.setdefault(src.name, [])
            for other_id, _src, other_digest in prior:
                if other_digest == digest:
                    raise CollisionError(
                        f"{src.name} emitted identically by chunks "
                        f"{other_id} and {chunk_id}")
            prior.append((chunk_id, src, digest))

    index: dict = {}
    for name, group in emitters.items():
        for chunk_id, src, _digest in group:
            target = (name if len(group) == 1
                      else f"chunk_{chunk_id:04d}__{name}")
            (merged / target).write_bytes(src.read_bytes())
            index[target] = {"chunk_id": chunk_id,
                             "source_sha256": Path(name).stem}
    (merged / "provenance.json").write_text(json.dumps(index, indent=1))
    return index
