"""Scorer abstractions and a quota-limited multi-engine verdict client.

Two scorer kinds share one interface: a local GBDT model fed by the static
featurizer, and a remote HTTP classifier speaking a tiny JSON protocol
(POST raw bytes to the endpoint, read back ``{"score": <float>}``).  On top
of that sits a verdict client that submits samples to a multi-engine
analysis service under a daily quota, persisting its state after every
transition so a multi-day run survives process restarts.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import features
from .gbdt import TrainedModel
from .mutator import DEFAULT_THRESHOLD as DEFAULT_SCORE_THRESHOLD
from .records import Record, list_files

DEFAULT_REPORT_AGE = 30 * 86400.0
DEFAULT_POLL_INTERVAL = 1.0
DEFAULT_TIMEOUT_MS = 10_000


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


def score(handle: ScorerHandle, data: bytes) -> float:
    """Score raw file bytes, returning a probability in [0, 1]."""
    if handle.kind == "local":
        vec = features.extract(data)
        prob = float(handle.model.predict_proba(vec[None, :])[0])
        # Guard against numeric drift; the sigmoid already lands in range.
        return min(max(prob, 0.0), 1.0)
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
    request costs only its own file.  The report is identical for any
    parallelism level.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be at least 1")
    paths = list_files(dir_path)

    def one(path: Path):
        try:
            data = path.read_bytes()
            return ("ok", (hashlib.sha256(data).hexdigest(),
                           score(handle, data)))
        except (OSError, ScoringError) as exc:
            return ("error", {"path": str(path), "error": str(exc)})

    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        outcomes = list(pool.map(one, paths))

    report: dict[str, dict] = {}
    errors: list[dict] = []
    for tag, payload in outcomes:
        if tag == "error":
            errors.append(payload)
        else:
            sha, value = payload
            report[sha] = {"score": value, "verdict": value >= handle.threshold}
    return report, errors


@dataclass(frozen=True)
class MultiEngineReport(Record):
    """Aggregated detection verdicts from a multi-engine analysis."""

    sha256: str
    fetched_at: float
    engines: dict
    total_engines: int
    detections: int
    top_group_detections: int

    def __post_init__(self) -> None:
        counted = sum(1 for v in self.engines.values() if v.get("detected"))
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
        top = set(top_group)
        detections = sum(1 for v in engines.values() if v.get("detected"))
        top_hits = sum(
            1 for name, v in engines.items() if v.get("detected") and name in top
        )
        return cls(sha256=sha256, fetched_at=fetched_at, engines=dict(engines),
                   total_engines=len(engines), detections=detections,
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
        if self.used_today > self.daily_limit:
            raise ValueError("used_today exceeds daily_limit")
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
        """Atomically persist: write a sibling temp file, then rename over."""
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(self.to_dict(), indent=1))
        os.replace(tmp, path)

    @classmethod
    def load(cls, path) -> "QuotaState":
        return cls.from_dict(json.loads(Path(path).read_text()))


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


@dataclass
class VerdictConfig:
    service: VerdictService
    state_path: str
    max_report_age: float = DEFAULT_REPORT_AGE
    poll_interval: float = DEFAULT_POLL_INTERVAL
    retries: int = 3
    retry_delay: float = 0.5
    clock: object = time.time
    sleep: object = time.sleep


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


def _retry_transport(fn, config: VerdictConfig):
    """Run fn, retrying TransportError with exponential backoff."""
    for attempt in range(config.retries + 1):
        try:
            return fn()
        except TransportError:
            if attempt == config.retries:
                raise
            config.sleep(config.retry_delay * (2 ** attempt))


def _is_fresh(report, config: VerdictConfig) -> bool:
    if report is None:
        return False
    return (config.clock() - report.fetched_at) < config.max_report_age


def _roll_day(state: QuotaState, config: VerdictConfig, persist) -> None:
    today = _utc_day(config.clock())
    if state.day != today:
        state.day = today
        state.used_today = 0
        persist()


def verdicts_submit_poll(state: QuotaState, files, config: VerdictConfig) -> QuotaState:
    """Resolve verdicts for files: reuse fresh reports, submit under quota, poll.

    Fresh cached reports cost nothing.  Unknown samples are looked up first;
    only misses consume quota.  Submissions stop at the daily limit and the
    remainder simply waits for a later call.  State hits disk after every
    transition, so a killed process resumes without losing or repeating work.
    """
    lock_path = str(config.state_path) + ".lock"
    with _state_lock(lock_path):
        return _submit_poll_locked(state, files, config)


def _submit_poll_locked(state, files, config):
    def persist():
        state.save(config.state_path)

    _roll_day(state, config, persist)
    pending_shas = {p.sha256 for p in state.pending}

    for path in files:
        data = Path(path).read_bytes()
        sha = hashlib.sha256(data).hexdigest()
        if sha in pending_shas:
            continue
        if _is_fresh(state.completed.get(sha), config):
            continue
        report = _retry_transport(lambda: config.service.lookup(sha), config)
        if _is_fresh(report, config):
            state.completed[sha] = report
            persist()
            continue
        _roll_day(state, config, persist)
        if state.used_today >= state.daily_limit:
            continue
        try:
            analysis_id = _retry_transport(
                lambda: config.service.submit(sha, data), config)
        except QuotaExceededError:
            break
        state.pending.append(PendingSubmission(
            sha256=sha, analysis_id=analysis_id, submitted_at=config.clock()))
        pending_shas.add(sha)
        state.used_today += 1
        persist()

    while state.pending:
        progressed = False
        for entry in list(state.pending):
            report = _retry_transport(
                lambda: config.service.poll(entry.analysis_id), config)
            if report is not None:
                state.completed[entry.sha256] = report
                state.pending.remove(entry)
                persist()
                progressed = True
        if not state.pending:
            break
        if not progressed:
            config.sleep(config.poll_interval)
    return state
