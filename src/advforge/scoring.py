"""Scorer abstractions and a quota-limited multi-engine verdict client.

Two scorer kinds share one interface: a local GBDT model fed by the static
featurizer, and a remote HTTP classifier speaking a tiny JSON protocol
(POST raw bytes to the endpoint, read back ``{"score": <float>}``).  On top
of that sits a verdict client that submits samples to a multi-engine
analysis service under a daily quota.  The ``quota`` config section
(``QuotaConfig``) is its one configuration: the client loads, limits and
saves its state file itself, only while it holds the file's lock.  The
state file is a journal: its first line is a compact JSON snapshot of
``QuotaState``, and each transition appends one fsync'd line holding only
that transition's change, so a multi-day run survives process restarts
without rewriting the whole state per transition.  A run that appended or
loaded lines ends by folding them into a fresh snapshot, one full write.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import time
import urllib.error
import urllib.request
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import features, pe
from .gbdt import TrainedModel
from .mutator import DEFAULT_THRESHOLD as DEFAULT_SCORE_THRESHOLD
from .records import Record, engine_verdicts, file_row, list_files, ordered_map

DEFAULT_TIMEOUT_MS = 10_000
RETRIES = 3
RETRY_DELAY = 0.5


class ScoringError(Exception):
    """Base class for scoring and verdict-client failures."""


class TransportError(ScoringError):
    """Endpoint unreachable, timed out, or returned a non-200 status."""


class MalformedResponseError(ScoringError):
    """Response arrived but does not conform to the wire protocol."""


class QuotaExceededError(ScoringError):
    """The remote service refused a submission for quota reasons."""


class StateLockError(ScoringError):
    """Another process holds the verdict state lock."""


@dataclass(frozen=True)
class ScorerHandle:
    """A uniform handle over local-model and remote-HTTP scorers."""

    kind: str
    model: TrainedModel | None = None
    endpoint: str = ""
    timeout_ms: int = DEFAULT_TIMEOUT_MS
    threshold: float = DEFAULT_SCORE_THRESHOLD

    def __post_init__(self) -> None:
        if self.kind not in ("local", "http"):
            raise ValueError(f"unknown scorer kind: {self.kind!r}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        if self.kind == "local" and self.model is None:
            raise ValueError("local scorer requires a model")
        if self.kind == "http":
            if not self.endpoint:
                raise ValueError("http scorer requires an endpoint URL")
            if self.timeout_ms <= 0:
                raise ValueError("timeout_ms must be positive")

    @classmethod
    def local(cls, model: TrainedModel,
              threshold: float = DEFAULT_SCORE_THRESHOLD) -> "ScorerHandle":
        return cls(kind="local", model=model, threshold=threshold)

    @classmethod
    def http(cls, endpoint: str, timeout_ms: int = DEFAULT_TIMEOUT_MS,
             threshold: float = DEFAULT_SCORE_THRESHOLD) -> "ScorerHandle":
        return cls(kind="http", endpoint=endpoint, timeout_ms=timeout_ms,
                   threshold=threshold)


def score(handle: ScorerHandle, data: bytes,
          image: pe.PeImage | None = None) -> float:
    """Score raw file bytes, returning a probability in [0, 1].

    ``image`` is passed on to ``features.extract`` by the local scorer, so
    a caller that holds the parsed image saves a parse; the http scorer
    sends the bytes alone.
    """
    if handle.kind == "local":
        vec = features.extract(data, image)
        return float(handle.model.predict_proba(vec[None, :])[0])
    return _score_http(handle, data)


def _score_http(handle: ScorerHandle, data: bytes) -> float:
    req = urllib.request.Request(
        handle.endpoint,
        data=data,
        method="POST",
        headers={"Content-Type": "application/octet-stream"},
    )
    try:
        with urllib.request.urlopen(req, timeout=handle.timeout_ms / 1000.0) as resp:
            if resp.status != 200:
                raise TransportError(f"endpoint returned status {resp.status}")
            body = resp.read()
    except urllib.error.HTTPError as exc:
        raise TransportError(f"endpoint returned status {exc.code}") from exc
    except (urllib.error.URLError, TimeoutError, ConnectionError, OSError) as exc:
        raise TransportError(f"request to {handle.endpoint} failed: {exc}") from exc
    try:
        obj = json.loads(body)
    except (ValueError, UnicodeDecodeError) as exc:
        raise MalformedResponseError("response body is not valid JSON") from exc
    if not isinstance(obj, dict) or "score" not in obj:
        raise MalformedResponseError("response JSON lacks a 'score' field")
    value = obj["score"]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MalformedResponseError("'score' is not a number")
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise MalformedResponseError(f"'score' out of range: {value}")
    return value


def classify_dir(handle: ScorerHandle, dir_path, parallelism: int = 1):
    """Score every entry of dir_path that is not a directory.

    Returns ``(report, errors)`` where report maps sha256 to
    ``{"score": float, "verdict": bool}`` (verdict is score >= threshold)
    and errors lists per-file read and scoring failures, so one failed
    request costs only its own file.  Files are scored on ``parallelism``
    threads through ``records.ordered_map``, the calling thread one of
    them; the report is identical for any parallelism level.
    """
    def one(_path: Path, data: bytes) -> dict:
        return {"sha256": hashlib.sha256(data).hexdigest(),
                "score": score(handle, data)}

    rows = ordered_map(lambda path: file_row(path, one, (ScoringError,)),
                       list_files(dir_path), parallelism)

    report = {r["sha256"]: {"score": r["score"],
                            "verdict": r["score"] >= handle.threshold}
              for r in rows if "error" not in r}
    return report, [r for r in rows if "error" in r]


@dataclass(frozen=True)
class MultiEngineReport(Record):
    """Aggregated detection verdicts from a multi-engine analysis.

    ``engines`` maps each engine to an object with a boolean ``detected``,
    as ``records.engine_verdicts`` checks it; the counts derive from it.
    """

    sha256: str
    fetched_at: float
    engines: dict
    total_engines: int
    detections: int
    top_group_detections: int

    def __post_init__(self) -> None:
        counted = sum(engine_verdicts(self.engines, "engines").values())
        if self.detections != counted:
            raise ValueError("detections must equal the detected==true count")
        if self.top_group_detections > self.detections:
            raise ValueError("top_group_detections cannot exceed detections")
        if not 0 <= self.total_engines <= 0xFFFF:
            raise ValueError("total_engines out of range")

    @classmethod
    def from_engines(cls, sha256: str, fetched_at: float, engines: dict,
                     top_group=()) -> "MultiEngineReport":
        """Build a report, deriving the counts from the engine map."""
        verdicts = engine_verdicts(engines, "engines")
        top = set(top_group)
        top_hits = sum(hit for name, hit in verdicts.items() if name in top)
        return cls(sha256=sha256, fetched_at=fetched_at, engines=dict(engines),
                   total_engines=len(engines),
                   detections=sum(verdicts.values()),
                   top_group_detections=top_hits)



@dataclass(frozen=True)
class PendingSubmission(Record):
    sha256: str
    analysis_id: str
    submitted_at: float


def _utc_day(ts: float) -> str:
    return datetime.fromtimestamp(ts, timezone.utc).date().isoformat()


@dataclass
class QuotaState:
    """Persistent, resumable state of the verdict client."""

    day: str
    used_today: int
    daily_limit: int
    pending: list = field(default_factory=list)
    completed: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.used_today < 0 or self.daily_limit < 0:
            raise ValueError("quota counters must be non-negative")
        shas = [p.sha256 for p in self.pending]
        if len(shas) != len(set(shas)):
            raise ValueError("pending entries must be unique by sha256")

    @classmethod
    def new(cls, daily_limit: int, now: float | None = None) -> "QuotaState":
        ts = time.time() if now is None else now
        return cls(day=_utc_day(ts), used_today=0, daily_limit=daily_limit)

    def to_dict(self) -> dict:
        return {
            "v": 1,
            "day": self.day,
            "used_today": self.used_today,
            "daily_limit": self.daily_limit,
            "pending": [p.to_dict() for p in self.pending],
            "completed": {k: r.to_dict() for k, r in self.completed.items()},
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "QuotaState":
        if obj.get("v") != 1:
            raise MalformedResponseError(f"unsupported state version: {obj.get('v')!r}")
        return cls(
            day=obj["day"],
            used_today=int(obj["used_today"]),
            daily_limit=int(obj["daily_limit"]),
            pending=[PendingSubmission.from_dict(p) for p in obj["pending"]],
            completed={k: MultiEngineReport.from_dict(r)
                       for k, r in obj["completed"].items()},
        )

    def save(self, path) -> None:
        """Write the state as one compact JSON line, durably and atomically:
        a sibling temp file is fsync'd, renamed over ``path``, and the
        directory is fsync'd."""
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(_line(self.to_dict()))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        fd = os.open(path.parent, os.O_RDONLY | os.O_DIRECTORY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    @classmethod
    def load(cls, path) -> "QuotaState":
        """Read a saved state and replay its journal; a file that is not
        one raises MalformedResponseError naming it."""
        return _read_state(path)[0]


@dataclass(frozen=True)
class _Change(Record):
    """One journal line: the fields of a ``QuotaState`` that one transition
    sets.  ``analysis_id`` and ``submitted_at`` queue a submission of
    ``sha256``; ``report`` completes ``sha256``, the key it is stored
    under, which a report's own ``sha256`` need not equal."""

    day: str | None = None
    used_today: int | None = None
    daily_limit: int | None = None
    sha256: str | None = None
    analysis_id: str | None = None
    submitted_at: float | None = None
    report: dict | None = None

    def __post_init__(self) -> None:
        if self.sha256 is None and (self.analysis_id is not None
                                    or self.report is not None):
            raise ValueError("a submission or report needs its sha256 key")

    def apply(self, state: QuotaState) -> None:
        if self.day is not None:
            state.day = self.day
        if self.used_today is not None:
            state.used_today = self.used_today
        if self.daily_limit is not None:
            state.daily_limit = self.daily_limit
        if self.analysis_id is not None:
            state.pending.append(PendingSubmission(
                sha256=self.sha256, analysis_id=self.analysis_id,
                submitted_at=self.submitted_at))
        if self.report is not None:
            state.pending = [p for p in state.pending
                             if p.sha256 != self.sha256]
            state.completed[self.sha256] = MultiEngineReport.from_dict(
                self.report)
        state.validate()


def _line(obj) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


def _read_state(path) -> tuple:
    """``(state, lines, keep)`` for a state file: its snapshot with every
    journal line replayed, the number of non-blank lines after the
    snapshot, and the byte length of the file without a torn last line.

    The snapshot is one JSON document, compact on one line or, as older
    files hold it, indented.  A last line with no newline that does not
    parse was cut off by a kill mid-append: it is counted and dropped.
    Any other bad line raises MalformedResponseError naming the file.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
        snapshot, end = json.JSONDecoder().raw_decode(text)
        state = QuotaState.from_dict(snapshot)
        *lines, tail = text[end:].split("\n")
        changes = [json.loads(line) for line in lines if line.strip()]
        torn = False
        if tail.strip():
            try:
                changes.append(json.loads(tail))
            except ValueError:
                torn = True
        for change in changes:
            _Change.from_dict(change).apply(state)
    except (ValueError, KeyError, TypeError, AttributeError,
            MalformedResponseError) as exc:
        raise MalformedResponseError(
            f"bad quota state {path}: {exc}") from exc
    keep = len(data) - (len(tail.encode("utf-8")) if torn else 0)
    return state, len(changes) + torn, keep


class VerdictService:
    """Interface the verdict client drives; implementations are injected.

    Real multi-engine APIs are out of scope, so the client is written
    against this narrow surface instead of a wire protocol.
    """

    def lookup(self, sha256: str):
        """Return an existing MultiEngineReport for the hash, or None."""
        raise NotImplementedError

    def submit(self, sha256: str, data: bytes) -> str:
        """Upload a sample; returns the new analysis id."""
        raise NotImplementedError

    def poll(self, analysis_id: str):
        """Return the finished report for an analysis id, or None if not ready."""
        raise NotImplementedError


@dataclass(frozen=True)
class QuotaConfig(Record):
    """The ``quota`` config section, the verdict client's settings.

    ``daily_limit`` and ``state_path`` have no default; ``verdicts`` needs
    both.  ``service`` is the ``module:factory`` of the verdict backend.
    """

    daily_limit: int | None = None
    state_path: str | None = None
    service: str | None = None
    max_report_age: float = 30 * 86400.0
    poll_interval: float = 1.0

    def __post_init__(self) -> None:
        if self.daily_limit is not None and self.daily_limit < 0:
            raise ValueError("daily_limit must be non-negative")
        if self.poll_interval < 0:
            raise ValueError("poll_interval must be non-negative")


@contextmanager
def _state_lock(lock_path: str):
    fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            raise StateLockError(f"state lock is held: {lock_path}") from exc
        yield
    finally:
        os.close(fd)


@contextmanager
def _state_journal(path: Path, fresh: QuotaState):
    """Under the state file's lock, ``(state, record)``: the state read from
    ``path`` (or ``fresh``, saved there) and ``record(change)``, which
    appends the change to the file as one line, fsyncs it and applies it.

    The file is first cut to its whole lines, dropping a torn last line,
    and a line that follows a last line with no newline starts with one.
    On a clean exit, a file that was loaded with lines or was appended to
    is compacted by one ``QuotaState.save``; after an exception it is left
    as it is, as a kill would leave it, for the next run to replay.
    """
    with _state_lock(str(path) + ".lock"):
        if path.exists():
            state, lines, keep = _read_state(path)
        else:
            state, lines = fresh, 0
            state.save(path)
            keep = path.stat().st_size
        fd = os.open(path, os.O_RDWR | os.O_APPEND)
        try:
            os.ftruncate(fd, keep)
            sep = b"\n" if keep and os.pread(fd, 1, keep - 1) != b"\n" else b""

            def record(change: _Change) -> None:
                nonlocal sep, lines
                os.write(fd, sep + _line(change.to_dict()).encode("utf-8"))
                os.fsync(fd)
                change.apply(state)
                sep = b""
                lines += 1

            yield state, record
        finally:
            os.close(fd)
        if lines:
            state.save(path)


def _retry_transport(fn, sleep):
    """Run fn, retrying TransportError with exponential backoff."""
    for attempt in range(RETRIES + 1):
        try:
            return fn()
        except TransportError:
            if attempt == RETRIES:
                raise
            sleep(RETRY_DELAY * (2 ** attempt))


def _roll_day(state: QuotaState, now: float, record) -> None:
    today = _utc_day(now)
    if state.day != today:
        record(_Change(day=today, used_today=0))


def verdicts_submit_poll(files, quota: QuotaConfig, service: VerdictService,
                         clock=time.time, sleep=time.sleep) -> QuotaState:
    """Resolve verdicts for files: reuse fresh reports, submit under quota, poll.

    Holding the lock ``quota.state_path + ".lock"``, load the state (or
    start and save it) and apply ``quota.daily_limit``: a limit at or
    below ``used_today`` submits nothing more until the next UTC day.
    Fresh cached reports cost nothing; unknown samples are looked up
    first, and only misses consume quota.  Every transition (the limit
    change, a day roll, a fresh lookup, a submit, a completed poll) is
    appended to the state file as one fsync'd journal line before the run
    goes on, so a killed process resumes without losing or repeating work.
    A run that appended or loaded journal lines ends with one full
    ``QuotaState.save``, which leaves the file a single JSON document.
    """
    path = Path(quota.state_path)
    limit = int(quota.daily_limit)

    def is_fresh(report) -> bool:
        return (report is not None
                and clock() - report.fetched_at < quota.max_report_age)

    fresh = QuotaState.new(limit, now=clock())
    with _state_journal(path, fresh) as (state, record):
        if state.daily_limit != limit:
            record(_Change(daily_limit=limit))
        _roll_day(state, clock(), record)
        pending_shas = {p.sha256 for p in state.pending}

        for file in files:
            data = Path(file).read_bytes()
            sha = hashlib.sha256(data).hexdigest()
            if sha in pending_shas or is_fresh(state.completed.get(sha)):
                continue
            report = _retry_transport(lambda: service.lookup(sha), sleep)
            if is_fresh(report):
                record(_Change(sha256=sha, report=report.to_dict()))
                continue
            _roll_day(state, clock(), record)
            if state.used_today >= state.daily_limit:
                continue
            try:
                analysis_id = _retry_transport(
                    lambda: service.submit(sha, data), sleep)
            except QuotaExceededError:
                break
            record(_Change(sha256=sha, analysis_id=analysis_id,
                           submitted_at=clock(),
                           used_today=state.used_today + 1))
            pending_shas.add(sha)

        while state.pending:
            progressed = False
            for entry in list(state.pending):
                report = _retry_transport(
                    lambda: service.poll(entry.analysis_id), sleep)
                if report is not None:
                    record(_Change(sha256=entry.sha256,
                                   report=report.to_dict()))
                    progressed = True
            if not state.pending:
                break
            if not progressed:
                sleep(quota.poll_interval)
    return state
