"""Tests for local/HTTP scoring and the quota-limited verdict client."""

import fcntl
import functools
import hashlib
import json
import math
import os

import numpy as np
import pytest

from advforge import features, scoring
from advforge.gbdt import Hyperparams, TrainedModel, train
from advforge.scoring import (
    MultiEngineReport,
    PendingSubmission,
    QuotaConfig,
    QuotaState,
    ScorerHandle,
    classify_dir,
    score,
    verdicts_submit_poll,
)


def constant_model(prob: float) -> TrainedModel:
    """An empty ensemble whose base margin realizes the given probability."""
    margin = 0.0 if prob == 0.5 else math.log(prob / (1.0 - prob))
    return TrainedModel(trees=(), base_score=margin, learning_rate=0.1,
                        feature_dim=features.FEATURE_DIM)


class TestScore:
    def test_empty_ensemble_scores_half(self):
        handle = ScorerHandle.local(constant_model(0.5))
        assert score(handle, b"anything at all") == 0.5
        assert score(handle, b"MZ" + b"\x00" * 100) == 0.5

    def test_http_stub_pass_through(self, stub_server):
        handle = ScorerHandle.http(stub_server + "/score")
        assert score(handle, b"payload") == 0.25

    def test_http_missing_field_is_malformed(self, stub_server):
        handle = ScorerHandle.http(stub_server + "/missing")
        with pytest.raises(scoring.MalformedResponseError):
            score(handle, b"x")

    def test_http_non_json_is_malformed(self, stub_server):
        handle = ScorerHandle.http(stub_server + "/notjson")
        with pytest.raises(scoring.MalformedResponseError):
            score(handle, b"x")

    def test_http_out_of_range_is_malformed(self, stub_server):
        handle = ScorerHandle.http(stub_server + "/outofrange")
        with pytest.raises(scoring.MalformedResponseError):
            score(handle, b"x")

    def test_http_500_is_transport(self, stub_server):
        handle = ScorerHandle.http(stub_server + "/boom")
        with pytest.raises(scoring.TransportError):
            score(handle, b"x")

    def test_http_connection_refused_is_transport(self):
        handle = ScorerHandle.http("http://127.0.0.1:1/score", timeout_ms=500)
        with pytest.raises(scoring.TransportError):
            score(handle, b"x")

    def test_http_timeout_is_transport(self, stub_server):
        handle = ScorerHandle.http(stub_server + "/slow", timeout_ms=100)
        with pytest.raises(scoring.TransportError):
            score(handle, b"x")

    def test_local_trained_model_probe(self, rng):
        """Train on separable byte families, then hand-walk the trees."""
        lows = [bytes(2048) for _ in range(20)]
        highs = [rng.integers(0, 256, size=2048).astype(np.uint8).tobytes()
                 for _ in range(20)]
        x = np.array([features.extract(b) for b in lows + highs])
        y = np.array([0] * 20 + [1] * 20, dtype=np.int64)
        hp = Hyperparams(learning_rate=0.5, num_leaves=2, min_data_in_leaf=5,
                         max_rounds=5, early_stop_rounds=0)
        model = train(x, y, hp, rng_seed=11)

        probe = rng.integers(0, 256, size=4096).astype(np.uint8).tobytes()
        got = score(ScorerHandle.local(model), probe)
        assert got > 0.9

        # Independent evaluation: follow each stump by hand.
        vec = features.extract(probe)
        margin = model.base_score
        for tree in model.trees:
            node = 0
            while tree.feature[node] >= 0:
                if vec[tree.feature[node]] <= tree.threshold[node]:
                    node = tree.left[node]
                else:
                    node = tree.right[node]
            margin += model.learning_rate * tree.value[node]
        assert got == pytest.approx(1.0 / (1.0 + math.exp(-margin)), abs=1e-12)

    def test_handle_validation(self):
        with pytest.raises(ValueError):
            ScorerHandle(kind="nope")
        with pytest.raises(ValueError):
            ScorerHandle.local(constant_model(0.5), threshold=1.5)
        with pytest.raises(ValueError):
            ScorerHandle(kind="local", model=None)
        with pytest.raises(ValueError):
            ScorerHandle.http("")


class TestClassifyDir:
    def test_two_files_above_threshold(self, tmp_path):
        (tmp_path / "a.bin").write_bytes(b"first sample")
        (tmp_path / "b.bin").write_bytes(b"second sample")
        handle = ScorerHandle.local(constant_model(0.9), threshold=0.871)
        report, errors = classify_dir(handle, tmp_path)
        assert errors == []
        assert len(report) == 2
        for sha, entry in report.items():
            assert len(sha) == 64
            assert entry["verdict"] is True
            assert entry["score"] == pytest.approx(0.9, abs=1e-12)

    def test_empty_dir(self, tmp_path):
        handle = ScorerHandle.local(constant_model(0.5))
        report, errors = classify_dir(handle, tmp_path)
        assert report == {}
        assert errors == []

    def test_parallelism_invariance(self, tmp_path, rng):
        src = tmp_path / "pool"
        src.mkdir()
        for i in range(100):
            n = int(rng.integers(64, 4096))
            (src / f"f{i:03d}.bin").write_bytes(
                rng.integers(0, 256, size=n).astype(np.uint8).tobytes())
        lows = [bytes(1024) for _ in range(10)]
        highs = [rng.integers(0, 256, size=1024).astype(np.uint8).tobytes()
                 for _ in range(10)]
        x = np.array([features.extract(b) for b in lows + highs])
        y = np.array([0] * 10 + [1] * 10, dtype=np.int64)
        model = train(x, y, Hyperparams(num_leaves=2, min_data_in_leaf=2,
                                        max_rounds=3, early_stop_rounds=0),
                      rng_seed=5)
        handle = ScorerHandle.local(model)
        seq, seq_err = classify_dir(handle, src, parallelism=1)
        par, par_err = classify_dir(handle, src, parallelism=8)
        assert seq == par
        assert seq_err == par_err == []
        assert len(seq) == 100

    def test_unreadable_file_recorded(self, tmp_path):
        (tmp_path / "good.bin").write_bytes(b"fine")
        os.symlink(tmp_path / "nowhere", tmp_path / "dangling")
        handle = ScorerHandle.local(constant_model(0.5))
        report, errors = classify_dir(handle, tmp_path)
        assert len(report) == 1
        assert len(errors) == 1
        assert "dangling" in errors[0]["path"]

    def test_verdict_uses_threshold_boundary(self, tmp_path):
        (tmp_path / "x.bin").write_bytes(b"x")
        handle = ScorerHandle.local(constant_model(0.5), threshold=0.5)
        report, _ = classify_dir(handle, tmp_path)
        (entry,) = report.values()
        assert entry["verdict"] is True


def make_report(sha, fetched_at, detected=3, total=5):
    engines = {f"eng{i}": {"detected": i < detected} for i in range(total)}
    return MultiEngineReport.from_engines(sha, fetched_at, engines,
                                          top_group=("eng0", "eng1"))


class TestMultiEngineReport:
    def test_from_engines_counts(self):
        rep = make_report("ab" * 32, 1000.0, detected=3, total=5)
        assert rep.total_engines == 5
        assert rep.detections == 3
        assert rep.top_group_detections == 2

    def test_invariant_detection_count(self):
        with pytest.raises(ValueError):
            MultiEngineReport(sha256="x", fetched_at=0.0,
                              engines={"a": {"detected": True}},
                              total_engines=1, detections=0,
                              top_group_detections=0)

    def test_invariant_top_group_bound(self):
        with pytest.raises(ValueError):
            MultiEngineReport(sha256="x", fetched_at=0.0,
                              engines={"a": {"detected": True}},
                              total_engines=1, detections=1,
                              top_group_detections=2)


class SimulatedCrash(Exception):
    pass


class ScriptedService(scoring.VerdictService):
    """In-memory verdict service with call logs and fault injection."""

    def __init__(self, ready_after=0, crash_on_submit=None,
                 flaky_submits=0, known=None):
        self.reports = dict(known or {})
        self.ready_after = ready_after
        self.crash_on_submit = crash_on_submit
        self.flaky_submits = flaky_submits
        self.lookup_calls = []
        self.submit_calls = []
        self.poll_calls = []
        self.analyses = {}
        self.now = 1_700_000_000.0

    def lookup(self, sha256):
        self.lookup_calls.append(sha256)
        return self.reports.get(sha256)

    def submit(self, sha256, data):
        if self.flaky_submits > 0:
            self.flaky_submits -= 1
            raise scoring.TransportError("injected transport fault")
        if self.crash_on_submit is not None:
            if len(self.submit_calls) + 1 >= self.crash_on_submit:
                raise SimulatedCrash("process killed mid-run")
        self.submit_calls.append(sha256)
        analysis_id = f"an-{len(self.submit_calls):04d}"
        self.analyses[analysis_id] = {"sha256": sha256, "polls": 0}
        return analysis_id

    def poll(self, analysis_id):
        self.poll_calls.append(analysis_id)
        entry = self.analyses.get(analysis_id)
        if entry is None:
            # Simulates an analysis created by a previous process run.
            entry = {"sha256": "", "polls": 0}
            self.analyses[analysis_id] = entry
        entry["polls"] += 1
        if entry["polls"] <= self.ready_after:
            return None
        rep = make_report(entry["sha256"], self.now)
        self.reports[entry["sha256"]] = rep
        return rep


class FakeClock:
    def __init__(self, start=1_700_000_000.0):
        self.value = start

    def __call__(self):
        return self.value

    def advance_days(self, days):
        self.value += days * 86400.0


def write_samples(root, count, prefix="s"):
    paths = []
    for i in range(count):
        p = root / f"{prefix}{i:02d}.bin"
        p.write_bytes(f"sample payload {prefix}{i}".encode())
        paths.append(p)
    return paths


def sha_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def make_config(service, state_path, clock, daily_limit):
    """The verdict client over one quota section, bound to a fake clock and
    a sleep that records its delays: returns ``(client, slept)``, where
    ``client(files)`` runs ``verdicts_submit_poll``."""
    slept = []
    quota = QuotaConfig(daily_limit=daily_limit, state_path=str(state_path),
                        poll_interval=0.01)
    return functools.partial(verdicts_submit_poll, quota=quota,
                             service=service, clock=clock,
                             sleep=slept.append), slept


class TestQuotaState:
    def test_round_trip_equality(self, tmp_path):
        state = QuotaState.new(daily_limit=10, now=1_700_000_000.0)
        state.pending.append(PendingSubmission("aa" * 32, "an-1", 5.0))
        state.completed["bb" * 32] = make_report("bb" * 32, 99.0)
        path = tmp_path / "state.json"
        state.save(path)
        assert QuotaState.load(path) == state
        assert not (tmp_path / "state.json.tmp").exists()

    def test_version_gate(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"v": 2, "day": "2026-01-01",
                                    "used_today": 0, "daily_limit": 1,
                                    "pending": [], "completed": {}}))
        with pytest.raises(scoring.MalformedResponseError):
            QuotaState.load(path)

    def test_invariants(self):
        with pytest.raises(ValueError):
            QuotaState(day="2026-01-01", used_today=-1, daily_limit=2)
        with pytest.raises(ValueError):
            QuotaState(day="2026-01-01", used_today=0, daily_limit=2,
                       pending=[PendingSubmission("a", "1", 0.0),
                                PendingSubmission("a", "2", 0.0)])


class TestVerdictClient:
    def test_fresh_cache_hits_cost_nothing(self, tmp_path):
        clock = FakeClock()
        files = write_samples(tmp_path, 3)
        service = ScriptedService()
        state_path = tmp_path / "state.json"
        state = QuotaState.new(daily_limit=10, now=clock())
        for p in files:
            state.completed[sha_of(p)] = make_report(sha_of(p), clock() - 86400.0)
        state.save(state_path)
        client, _ = make_config(service, state_path, clock, 10)
        out = client(files)
        assert service.submit_calls == []
        assert service.lookup_calls == []
        assert out.used_today == 0

    def test_stale_cache_refreshed_via_lookup(self, tmp_path):
        clock = FakeClock()
        files = write_samples(tmp_path, 1)
        sha = sha_of(files[0])
        fresh = make_report(sha, clock() - 10.0)
        service = ScriptedService(known={sha: fresh})
        state_path = tmp_path / "state.json"
        state = QuotaState.new(daily_limit=10, now=clock())
        state.completed[sha] = make_report(sha, clock() - 40 * 86400.0)
        state.save(state_path)
        client, _ = make_config(service, state_path, clock, 10)
        out = client(files)
        assert service.submit_calls == []
        assert out.completed[sha].fetched_at == fresh.fetched_at
        assert out.used_today == 0

    def test_quota_arithmetic(self, tmp_path):
        clock = FakeClock()
        files = write_samples(tmp_path, 5)
        service = ScriptedService()
        state_path = tmp_path / "state.json"
        QuotaState.new(daily_limit=2, now=clock()).save(state_path)
        client, _ = make_config(service, state_path, clock, 2)
        out = client(files)
        assert len(service.submit_calls) == 2
        assert out.used_today == 2
        assert out.pending == []
        assert len(out.completed) == 2

    def test_three_day_run_with_mid_run_kill(self, tmp_path):
        clock = FakeClock()
        files = write_samples(tmp_path, 6)
        all_shas = {sha_of(p) for p in files}
        state_path = tmp_path / "state.json"
        service = ScriptedService(crash_on_submit=3)
        state = QuotaState.new(daily_limit=3, now=clock())
        state.save(state_path)

        # Day 1: process dies on the third submission attempt.
        client, _ = make_config(service, state_path, clock, 3)
        with pytest.raises(SimulatedCrash):
            client(files)
        state = QuotaState.load(state_path)
        assert state.used_today == 2
        assert len(state.pending) == 2

        # Restart the same day: the two in-flight ids are not resubmitted.
        service.crash_on_submit = None
        state = client(files)
        assert state.used_today == 3
        assert len(service.submit_calls) == 3
        assert state.pending == []

        # Days 2 and 3 pick up the remainder under the same limit.
        clock.advance_days(1)
        state = client(files)
        assert state.used_today == 3
        clock.advance_days(1)
        state = client(files)
        assert set(state.completed) == all_shas
        assert sorted(service.submit_calls) == sorted(all_shas)
        assert len(service.submit_calls) == len(set(service.submit_calls))

    def test_state_survives_repeated_reload(self, tmp_path):
        """Every transition is persisted: reload mid-flight equals in-memory."""
        clock = FakeClock()
        files = write_samples(tmp_path, 4)
        state_path = tmp_path / "state.json"
        service = ScriptedService(ready_after=2)
        QuotaState.new(daily_limit=10, now=clock()).save(state_path)
        client, _ = make_config(service, state_path, clock, 10)
        out = client(files)
        assert QuotaState.load(state_path) == out

    def test_config_limit_replaces_the_saved_one(self, tmp_path):
        clock = FakeClock()
        files = write_samples(tmp_path, 4)
        service = ScriptedService()
        state_path = tmp_path / "state.json"
        state = QuotaState.new(daily_limit=10, now=clock())
        state.used_today = 3
        state.save(state_path)
        client, _ = make_config(service, state_path, clock, 1)
        out = client(files)
        assert service.submit_calls == []
        assert (out.used_today, out.daily_limit) == (3, 1)
        assert QuotaState.load(state_path) == out
        # The next UTC day starts at the lowered limit.
        clock.advance_days(1)
        out = client(files)
        assert len(service.submit_calls) == 1
        assert (out.used_today, out.daily_limit) == (1, 1)

    def test_transport_retry_with_backoff(self, tmp_path):
        clock = FakeClock()
        files = write_samples(tmp_path, 1)
        service = ScriptedService(flaky_submits=2)
        state_path = tmp_path / "state.json"
        QuotaState.new(daily_limit=5, now=clock()).save(state_path)
        client, slept = make_config(service, state_path, clock, 5)
        out = client(files)
        assert len(service.submit_calls) == 1
        assert out.used_today == 1
        assert slept[:2] == [scoring.RETRY_DELAY, 2 * scoring.RETRY_DELAY]

    def test_transport_exhaustion_propagates(self, tmp_path):
        clock = FakeClock()
        files = write_samples(tmp_path, 1)
        service = ScriptedService(flaky_submits=10)
        state_path = tmp_path / "state.json"
        QuotaState.new(daily_limit=5, now=clock()).save(state_path)
        client, _ = make_config(service, state_path, clock, 5)
        with pytest.raises(scoring.TransportError):
            client(files)

    def test_lock_excludes_second_runner(self, tmp_path):
        clock = FakeClock()
        files = write_samples(tmp_path, 1)
        state_path = tmp_path / "state.json"
        fd = os.open(str(state_path) + ".lock", os.O_CREAT | os.O_RDWR)
        fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            QuotaState.new(daily_limit=5, now=clock()).save(state_path)
            client, _ = make_config(ScriptedService(), state_path, clock, 5)
            with pytest.raises(scoring.StateLockError):
                client(files)
        finally:
            os.close(fd)

    def test_duplicate_files_submitted_once(self, tmp_path):
        clock = FakeClock()
        p = tmp_path / "dup.bin"
        p.write_bytes(b"identical payload")
        service = ScriptedService()
        state_path = tmp_path / "state.json"
        QuotaState.new(daily_limit=5, now=clock()).save(state_path)
        client, _ = make_config(service, state_path, clock, 5)
        out = client([p, p, p])
        assert len(service.submit_calls) == 1
        assert out.used_today == 1

    def test_remote_quota_refusal_queues_work(self, tmp_path):
        clock = FakeClock()
        files = write_samples(tmp_path, 3)

        class RefusingService(ScriptedService):
            def submit(self, sha256, data):
                if len(self.submit_calls) >= 1:
                    raise scoring.QuotaExceededError("daily cap")
                return super().submit(sha256, data)

        service = RefusingService()
        state_path = tmp_path / "state.json"
        QuotaState.new(daily_limit=10, now=clock()).save(state_path)
        client, _ = make_config(service, state_path, clock, 10)
        out = client(files)
        assert len(service.submit_calls) == 1
        assert out.used_today == 1
        assert len(out.completed) == 1


def journal_lines(path):
    """The lines of a state file after its snapshot line."""
    return path.read_text().splitlines()[1:]


def inode(path):
    st = os.stat(path)
    return st.st_dev, st.st_ino


class TestJournal:
    """The state file is a snapshot line plus one fsync'd line per
    transition, folded into one snapshot at the end of a run."""

    @staticmethod
    def seeded(state_path, clock, reports=0):
        state = QuotaState.new(daily_limit=10, now=clock())
        for i in range(reports):
            sha = f"{i:064x}"
            state.completed[sha] = make_report(sha, clock() - 86400.0)
        state.save(state_path)

    @staticmethod
    def run_killed_before_compaction(client, files, monkeypatch):
        """Run the client with the final compaction's rename failing, as a
        kill between the last append and the compaction leaves the file."""
        def killed(*_args):
            raise SimulatedCrash("killed before the compaction")

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", killed)
            with pytest.raises(SimulatedCrash):
                client(files)

    @staticmethod
    def reference(state_path, clock, *runs):
        """The state that uninterrupted runs over each list of files, in
        turn, reach."""
        TestJournal.seeded(state_path, clock)
        client, _ = make_config(ScriptedService(ready_after=1), state_path,
                                clock, 3)
        for files in runs:
            state = client(files)
        return state

    def test_clean_run_leaves_one_document(self, tmp_path):
        clock = FakeClock()
        files = write_samples(tmp_path, 4)
        state_path = tmp_path / "state.json"
        self.seeded(state_path, clock)
        client, _ = make_config(ScriptedService(ready_after=1), state_path,
                                clock, 3)
        out = client(files)
        text = state_path.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        # a reader of one JSON document, as older versions were, reads it
        assert QuotaState.from_dict(json.loads(text)) == out
        assert QuotaState.load(state_path) == out
        assert not (tmp_path / "state.json.tmp").exists()

    def test_run_without_transitions_does_not_rewrite(self, tmp_path,
                                                      monkeypatch):
        clock = FakeClock()
        files = write_samples(tmp_path, 2)
        state_path = tmp_path / "state.json"
        state = QuotaState.new(daily_limit=5, now=clock())
        for p in files:
            state.completed[sha_of(p)] = make_report(sha_of(p), clock())
        state.save(state_path)
        saves = []
        monkeypatch.setattr(QuotaState, "save",
                            lambda self, path: saves.append(path))
        client, _ = make_config(ScriptedService(), state_path, clock, 5)
        assert client(files) == state
        assert saves == []

    def test_save_and_every_append_are_fsynced(self, tmp_path, monkeypatch):
        clock = FakeClock()
        synced = []
        real_fsync = os.fsync

        def spy(fd):
            st = os.fstat(fd)
            synced.append((st.st_dev, st.st_ino))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        state_path = tmp_path / "state.json"
        self.seeded(state_path, clock)
        # the temp file, renamed to the state file, then its directory
        assert synced == [inode(state_path), inode(tmp_path)]

        synced.clear()
        journal = inode(state_path)
        files = write_samples(tmp_path, 4)
        client, _ = make_config(ScriptedService(ready_after=1), state_path,
                                clock, 3)
        self.run_killed_before_compaction(client, files, monkeypatch)
        lines = journal_lines(state_path)
        assert len(lines) == 7  # limit, 3 submits, 3 polls
        assert synced[:-1] == [journal] * len(lines)
        assert synced[-1] != journal  # the compaction's temp file

    def test_kill_between_append_and_compaction(self, tmp_path, monkeypatch):
        clock = FakeClock()
        files = write_samples(tmp_path, 4)
        reached = self.reference(tmp_path / "ref.json", clock, files)
        state_path = tmp_path / "state.json"
        self.seeded(state_path, clock)
        client, _ = make_config(ScriptedService(ready_after=1), state_path,
                                clock, 3)
        self.run_killed_before_compaction(client, files, monkeypatch)
        assert len(journal_lines(state_path)) == 7
        assert QuotaState.load(state_path) == reached

        # The next run submits nothing but compacts what it loaded.
        service = ScriptedService()
        client, _ = make_config(service, state_path, clock, 3)
        assert client(files) == reached
        assert service.submit_calls == []
        assert journal_lines(state_path) == []
        assert not (tmp_path / "state.json.tmp").exists()
        assert QuotaState.load(state_path) == reached

    def test_torn_last_line_is_dropped(self, tmp_path, monkeypatch):
        clock = FakeClock()
        files = write_samples(tmp_path, 4)
        state_path = tmp_path / "state.json"
        self.seeded(state_path, clock)
        client, _ = make_config(ScriptedService(ready_after=1), state_path,
                                clock, 3)
        self.run_killed_before_compaction(client, files[:2], monkeypatch)
        with open(state_path, "a") as fh:
            fh.write('{"used_today":3,"sha256":"ab')
        assert QuotaState.load(state_path) == self.reference(
            tmp_path / "ref.json", clock, files[:2])

        # The next run cuts the torn line off before it appends its own.
        self.run_killed_before_compaction(client, files, monkeypatch)
        assert '"ab' not in state_path.read_text()
        assert QuotaState.load(state_path) == self.reference(
            tmp_path / "ref2.json", clock, files[:2], files)

    def test_last_line_without_newline_that_parses_is_kept(self, tmp_path,
                                                           monkeypatch):
        clock = FakeClock()
        state_path = tmp_path / "state.json"
        self.seeded(state_path, clock)
        with open(state_path, "a") as fh:
            fh.write('{"used_today":2}')
        assert QuotaState.load(state_path).used_today == 2
        files = write_samples(tmp_path, 1)
        client, _ = make_config(ScriptedService(), state_path, clock, 3)
        self.run_killed_before_compaction(client, files, monkeypatch)
        lines = journal_lines(state_path)
        assert lines[0] == '{"used_today":2}'
        state = QuotaState.load(state_path)
        assert (state.used_today, len(state.completed)) == (3, 1)

    def test_bad_line_before_the_last_names_the_file(self, tmp_path):
        clock = FakeClock()
        state_path = tmp_path / "state.json"
        self.seeded(state_path, clock)
        for bad in ('{"used_today":1\n', '{"colour":"red"}\n',
                    '{"used_today":-1}\n', '{"report":{}}\n'):
            text = state_path.read_text().splitlines()[0] + "\n"
            state_path.write_text(text + bad + '{"used_today":2}\n')
            with pytest.raises(scoring.MalformedResponseError,
                               match=str(state_path)):
                QuotaState.load(state_path)

    def test_indented_single_document_loads_and_takes_appends(
            self, tmp_path, monkeypatch):
        """A file written as one indented document loads to an equal
        state, and lines appended to it replay."""
        clock = FakeClock()
        files = write_samples(tmp_path, 4)
        reached = self.reference(tmp_path / "ref.json", clock, files)
        state_path = tmp_path / "state.json"
        state = QuotaState.new(daily_limit=10, now=clock())
        state.pending.append(PendingSubmission("aa" * 32, "an-9", 5.0))
        state.completed["bb" * 32] = make_report("bb" * 32, 99.0)
        state_path.write_text(json.dumps(state.to_dict(), indent=1))
        assert QuotaState.load(state_path) == state

        state_path.write_text(json.dumps(
            QuotaState.new(daily_limit=10, now=clock()).to_dict(), indent=1))
        client, _ = make_config(ScriptedService(ready_after=1), state_path,
                                clock, 3)
        self.run_killed_before_compaction(client, files, monkeypatch)
        assert QuotaState.load(state_path) == reached

    def test_large_state_one_save_and_equal_lines(self, tmp_path,
                                                  monkeypatch):
        """The same transitions over 50 and over 5,000 stored reports cost
        one full save per run and append lines of equal length."""
        clock = FakeClock()
        files = write_samples(tmp_path, 4)
        sha0 = sha_of(files[0])
        real_save = QuotaState.save
        appended = {}
        for size in (50, 5000):
            state_path = tmp_path / f"state{size}.json"
            self.seeded(state_path, clock, reports=size)
            saves = []

            def counting_save(state, path):
                saves.append(journal_lines(path))
                real_save(state, path)

            # limit change, day roll, fresh lookup, 3 submits, 3 polls
            service = ScriptedService(
                ready_after=1, known={sha0: make_report(sha0, clock.value
                                                        + 86400.0)})
            client, _ = make_config(service, state_path, clock, 3)
            clock.advance_days(1)
            with monkeypatch.context() as patch:
                patch.setattr(QuotaState, "save", counting_save)
                out = client(files)
            clock.advance_days(-1)
            assert len(saves) == 1
            assert len(out.completed) == size + 4
            assert QuotaState.load(state_path) == out
            appended[size] = [len(line) for line in saves[0]]
        assert len(appended[50]) == 9
        assert appended[50] == appended[5000]
