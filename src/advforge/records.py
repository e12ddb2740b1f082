"""Record serialization and the package's line-oriented file formats.

``Record`` gives flat dataclasses one shared ``to_dict``/``from_dict``
pair.  ``read_jsonl``/``write_jsonl`` are the package's JSONL reader and
writer of whole files (the verdict client's state journal, a snapshot
line and appended change lines, is read and written in ``scoring``),
``write_csv`` its only CSV writer, ``list_files`` its only
directory listing, and ``file_row`` its one per-file read (``validate``,
``mutate``, ``score``, ``train`` and the harness split): a listed file
becomes one row, or one ``{"path", "error"}`` row when it fails.
``ordered_map`` is the one worker pool: independent units on threads,
results in input order.
``engine_verdicts`` is the one check of an engine map, ``{engine:
{"detected": bool, ...}}``: the columns that ``select`` writes and
``stats`` reads, and ``MultiEngineReport.engines``.
"""

from __future__ import annotations

import csv
import json
import threading
from dataclasses import fields
from pathlib import Path


class Record:
    """Mixin for dataclasses that serialize field by field.

    ``to_dict`` is shallow: a field holding another Record becomes that
    record's dict, and every other value, dicts and lists included, passes
    through untouched.  ``from_dict`` rejects unknown keys and leaves every
    other check to the constructor, so ``__post_init__`` stays the only
    validator.
    """

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = value.to_dict() if isinstance(value, Record) else value
        return out

    @classmethod
    def from_dict(cls, obj: dict):
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
        return cls(**obj)


def engine_verdicts(engines, column: str) -> dict:
    """``{engine: detected}`` from an engine map; ValueError, naming the
    column, unless every engine maps to an object with a boolean
    ``detected``."""
    if not isinstance(engines, dict):
        raise ValueError(f"{column} must map engine names to objects")
    verdicts = {}
    for name, entry in engines.items():
        detected = entry.get("detected") if isinstance(entry, dict) else None
        if not isinstance(detected, bool):
            raise ValueError(f"{column}: engine {name!r} must map to an "
                             "object with a boolean 'detected'")
        verdicts[name] = detected
    return verdicts


def list_files(dir_path) -> list:
    """A directory's entries that are not directories, sorted by path.  A
    dangling symlink is kept, so the caller that reads it reports it."""
    return sorted(p for p in Path(dir_path).iterdir() if not p.is_dir())


def file_row(path, fn, errors=()) -> dict:
    """``{"path": str(path), **fn(path, data)}`` for the file's bytes, or
    ``{"path", "error"}`` when the read or ``fn`` raises OSError or one of
    ``errors``, so a failed file costs only its own row."""
    try:
        return {"path": str(path), **fn(path, Path(path).read_bytes())}
    except (OSError, *errors) as exc:
        return {"path": str(path), "error": str(exc)}


def ordered_map(fn, items, workers: int) -> list:
    """``[fn(item) for item in items]`` on ``workers`` threads.

    The calling thread is one of the workers, so ``workers == 1`` starts
    no thread, and no more than ``workers`` threads hold a malloc arena
    (glibc gives each thread its own, and an arena keeps its high-water
    mark).  Items are handed out in input order.  When ``fn`` raises, no
    later item starts; once every worker has stopped, the exception of the
    lowest failed index is raised, as a serial loop would raise it.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    items = list(items)
    results = [None] * len(items)
    failures = {}
    lock = threading.Lock()
    handed = 0

    def drain() -> None:
        nonlocal handed
        while True:
            with lock:
                index = handed
                if index >= len(items) or failures:
                    return
                handed += 1
            try:
                results[index] = fn(items[index])
            except BaseException as exc:
                with lock:
                    failures[index] = exc

    threads = [threading.Thread(target=drain)
               for _ in range(min(workers, len(items)) - 1)]
    for thread in threads:
        thread.start()
    try:
        drain()
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise failures[min(failures)]
    return results


def read_jsonl(path) -> list:
    """One JSON value per line; blank lines are skipped."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def write_jsonl(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def write_csv(path, header, rows) -> None:
    """Header plus rows; None is written empty, floats to six decimals."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)
