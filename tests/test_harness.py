"""Orchestration tests driven by scripted mock workers."""

import copy
import hashlib
import json
import subprocess
import textwrap
import time
from pathlib import Path

import pytest

from advforge import harness
from pe_oracle import build_pe

WINDOW = 2.0


def make_corpus(root: Path, count: int, prefix: str = "s") -> list[Path]:
    root.mkdir(parents=True, exist_ok=True)
    out = []
    for i in range(count):
        data = build_pe([(b".text", bytes([i]) * 600, 0x60000020)])
        path = root / f"{prefix}{i:03d}.bin"
        path.write_bytes(data)
        out.append(path)
    return out


@pytest.fixture()
def worker_script(tmp_path):
    """Mock generator: copies each input padded, one log line per file.

    Inputs whose name contains ``hang`` make it sleep silently forever.
    """
    script = tmp_path / "worker.py"
    script.write_text(textwrap.dedent("""\
        import hashlib, pathlib, sys, time
        inp, out, log = (pathlib.Path(a) for a in sys.argv[1:4])
        handle = open(log, "a")
        for f in sorted(inp.iterdir()):
            if "hang" in f.name:
                time.sleep(600)
            data = f.read_bytes()
            sha = hashlib.sha256(data).hexdigest()
            (out / (sha + ".bin")).write_bytes(data + b"ADV!")
            print("did", f.name, file=handle, flush=True)
        handle.close()
        """))
    return f"python3 {script} {{input_dir}} {{output_dir}} {{log_file}}"


@pytest.fixture()
def heartbeat_command(tmp_path):
    """Compound worker command whose worker never logs; it appends to
    ``heartbeat`` beside itself every 50 ms, for a minute at most."""
    script = tmp_path / "beat.py"
    script.write_text(textwrap.dedent("""\
        import pathlib, time
        beat = pathlib.Path(__file__).with_name("heartbeat")
        for _ in range(1200):
            with open(beat, "a") as handle:
                handle.write(".")
            time.sleep(0.05)
        """))
    return f"python3 {script} {{input_dir}} {{output_dir}} {{log_file}}; true"


def assert_heartbeat_stopped(path: Path) -> None:
    time.sleep(0.2)
    size = path.stat().st_size
    time.sleep(0.3)
    assert size > 0
    assert path.stat().st_size == size


def small_config(command, **kw):
    defaults = dict(worker_command=command, chunk_count=4,
                    stale_window=WINDOW, max_restarts=1, max_parallel=4)
    defaults.update(kw)
    return harness.HarnessConfig(**defaults)


class TestConfig:
    def test_defaults(self):
        cfg = harness.HarnessConfig(
            worker_command="w {input_dir} {output_dir} {log_file}")
        assert cfg.chunk_count == 2000
        assert cfg.stale_window == 600.0
        assert cfg.max_restarts == 1
        assert cfg.max_parallel >= 1

    @pytest.mark.parametrize("bad", [
        dict(chunk_count=0),
        dict(max_restarts=-1),
        dict(max_parallel=0),
        dict(stale_window=0.0),
    ])
    def test_invariants(self, bad):
        with pytest.raises(ValueError):
            small_config("w {input_dir} {output_dir} {log_file}", **bad)

    def test_placeholders_required(self):
        with pytest.raises(ValueError, match="log_file"):
            harness.HarnessConfig(worker_command="w {input_dir} {output_dir}")

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown"):
            harness.HarnessConfig.from_dict({
                "worker_command": "w {input_dir} {output_dir} {log_file}",
                "threads": 2})


class TestSplit:
    def test_balanced_sizes(self, tmp_path):
        make_corpus(tmp_path / "in", 10)
        manifest = harness.split_dataset(tmp_path / "in", 3)
        sizes = sorted(len(files) for _, files in manifest.chunks)
        assert sizes == [3, 3, 4]
        assert manifest.excluded == ()

    def test_every_file_exactly_once(self, tmp_path):
        paths = make_corpus(tmp_path / "in", 23)
        manifest = harness.split_dataset(tmp_path / "in", 7)
        seen = [f for _, files in manifest.chunks for f in files]
        assert sorted(seen) == sorted(str(p) for p in paths)
        assert len(set(seen)) == 23

    def test_chunk_count_caps_at_file_count(self, tmp_path):
        make_corpus(tmp_path / "in", 3)
        manifest = harness.split_dataset(tmp_path / "in", 2000)
        assert len(manifest.chunks) == 3
        assert all(len(files) == 1 for _, files in manifest.chunks)

    def test_invalid_files_excluded_with_reasons(self, tmp_path):
        make_corpus(tmp_path / "in", 4)
        (tmp_path / "in" / "junk.bin").write_bytes(b"not a pe at all")
        (tmp_path / "in" / "tiny.bin").write_bytes(b"MZ")
        manifest = harness.split_dataset(tmp_path / "in", 2)
        assert len(manifest.excluded) == 2
        assert all(e["reasons"] for e in manifest.excluded)
        merged = [f for _, files in manifest.chunks for f in files]
        assert not any("junk" in f or "tiny" in f for f in merged)

    def test_empty_input_raises(self, tmp_path):
        (tmp_path / "in").mkdir()
        (tmp_path / "in" / "junk.bin").write_bytes(b"xx")
        with pytest.raises(harness.EmptyInput):
            harness.split_dataset(tmp_path / "in", 4)

    def test_manifest_round_trip(self, tmp_path):
        make_corpus(tmp_path / "in", 5)
        (tmp_path / "in" / "bad.bin").write_bytes(b"nope")
        manifest = harness.split_dataset(tmp_path / "in", 2)
        manifest.save(tmp_path / "m.json")
        saved = json.loads((tmp_path / "m.json").read_text())
        assert saved == manifest.to_dict()


class TestRun:
    def test_happy_path_all_done(self, tmp_path, worker_script):
        paths = make_corpus(tmp_path / "in", 8)
        manifest = harness.split_dataset(tmp_path / "in", 4)
        summary = harness.run(small_config(worker_script), manifest,
                              tmp_path / "work")
        assert set(summary.chunk_states.values()) == {"done"}
        assert all(n == 0 for n in summary.restarts.values())

        index = harness.merge_outputs(manifest, summary, tmp_path / "work",
                                      tmp_path / "merged")
        expected = {hashlib.sha256(p.read_bytes()).hexdigest() + ".bin"
                    for p in paths}
        produced = {p.name for p in (tmp_path / "merged").iterdir()
                    if p.name != "provenance.json"}
        assert produced == expected
        assert len(index) == len(expected)
        for name, row in index.items():
            assert row["source_sha256"] == Path(name).stem

    def test_hanging_worker_restarted_once_then_discarded(
            self, tmp_path, worker_script):
        make_corpus(tmp_path / "in", 6)
        # chunk picking up this file will freeze without touching its log
        (tmp_path / "in" / "a_hang.bin").write_bytes(
            build_pe([(b".text", b"\xEE" * 600, 0x60000020)]))
        manifest = harness.split_dataset(tmp_path / "in", 4)
        hung = [cid for cid, files in manifest.chunks
                if any("hang" in Path(f).name for f in files)]
        assert len(hung) == 1

        t0 = time.monotonic()
        summary = harness.run(small_config(worker_script), manifest,
                              tmp_path / "work")
        elapsed = time.monotonic() - t0

        assert elapsed < 30.0
        assert summary.chunk_states[hung[0]] == "discarded"
        assert summary.restarts[hung[0]] == 1
        others = {cid: st for cid, st in summary.chunk_states.items()
                  if cid != hung[0]}
        assert set(others.values()) == {"done"}

        mine = [e for e in summary.events if e["chunk_id"] == hung[0]]
        kinds = [e["event"] for e in mine]
        assert kinds == ["launch", "stale-kill", "restart", "launch",
                         "stale-kill", "discard"]
        launches = [e["ts"] for e in mine if e["event"] == "launch"]
        kills = [e["ts"] for e in mine if e["event"] == "stale-kill"]
        poll = WINDOW / 10.0
        for started, killed in zip(launches, kills):
            assert WINDOW - 1e-6 <= killed - started <= WINDOW + 2 * poll + 1.0

    def test_finished_worker_noticed_within_a_tick(self, tmp_path,
                                                   worker_script):
        # a finished worker is noticed within a tick, whatever the window
        make_corpus(tmp_path / "in", 2)
        manifest = harness.split_dataset(tmp_path / "in", 2)
        summary = harness.run(
            small_config(worker_script, chunk_count=2, stale_window=60.0),
            manifest, tmp_path / "work")
        assert set(summary.chunk_states.values()) == {"done"}
        assert summary.wall_time < 3.0

    def test_discarded_chunk_excluded_from_merge(self, tmp_path, worker_script):
        make_corpus(tmp_path / "in", 6)
        (tmp_path / "in" / "a_hang.bin").write_bytes(
            build_pe([(b".text", b"\xEE" * 600, 0x60000020)]))
        manifest = harness.split_dataset(tmp_path / "in", 3)
        summary = harness.run(small_config(worker_script, chunk_count=3),
                              manifest, tmp_path / "work")
        index = harness.merge_outputs(manifest, summary, tmp_path / "work",
                                      tmp_path / "merged")
        done = [cid for cid, st in summary.chunk_states.items() if st == "done"]
        expected = sum(len(files) for cid, files in manifest.chunks
                       if cid in done)
        assert len(index) == expected
        assert {row["chunk_id"] for row in index.values()} == set(done)

    def test_stale_compound_command_killed_whole(self, tmp_path,
                                                 heartbeat_command):
        make_corpus(tmp_path / "in", 1)
        manifest = harness.split_dataset(tmp_path / "in", 1)
        cfg = small_config(heartbeat_command, chunk_count=1,
                           stale_window=0.5, max_restarts=0)
        summary = harness.run(cfg, manifest, tmp_path / "work")
        assert summary.chunk_states == {0: "discarded"}
        assert_heartbeat_stopped(tmp_path / "heartbeat")

    def test_interrupted_run_kills_running_workers(self, tmp_path,
                                                   heartbeat_command):
        make_corpus(tmp_path / "in", 1)
        manifest = harness.split_dataset(tmp_path / "in", 1)

        def interrupt(_seconds):
            time.sleep(0.5)
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            harness.run(small_config(heartbeat_command, chunk_count=1),
                        manifest, tmp_path / "work", sleep=interrupt)
        assert_heartbeat_stopped(tmp_path / "heartbeat")

    def test_nonzero_exit_consumes_restart_then_discards(self, tmp_path):
        make_corpus(tmp_path / "in", 2)
        manifest = harness.split_dataset(tmp_path / "in", 2)
        fail = tmp_path / "fail.py"
        fail.write_text("import sys; sys.exit(3)\n")
        cfg = small_config(
            f"python3 {fail} {{input_dir}} {{output_dir}} {{log_file}}",
            chunk_count=2, stale_window=1.0)
        summary = harness.run(cfg, manifest, tmp_path / "work")
        assert set(summary.chunk_states.values()) == {"discarded"}
        assert set(summary.restarts.values()) == {1}
        exit_events = [e for e in summary.events
                       if e["event"].startswith("exit-error")]
        assert len(exit_events) == 4  # two attempts per chunk

    def test_spawn_failure_counts_as_attempt(self, tmp_path, worker_script,
                                             monkeypatch):
        make_corpus(tmp_path / "in", 4)
        manifest = harness.split_dataset(tmp_path / "in", 2)
        real_popen = subprocess.Popen

        def exploding(cmd, **kw):
            if "chunk_0001" in cmd:
                raise OSError("no such executable")
            return real_popen(cmd, **kw)

        monkeypatch.setattr(harness.subprocess, "Popen", exploding)
        summary = harness.run(small_config(worker_script, chunk_count=2),
                              manifest, tmp_path / "work")
        assert summary.chunk_states[0] == "done"
        assert summary.chunk_states[1] == "discarded"
        assert summary.restarts[1] == 1
        spawn_events = [e for e in summary.events
                        if e["event"].startswith("spawn-failure")]
        assert len(spawn_events) == 2

    def test_max_parallel_one_serializes(self, tmp_path, worker_script):
        make_corpus(tmp_path / "in", 3)
        manifest = harness.split_dataset(tmp_path / "in", 3)
        summary = harness.run(
            small_config(worker_script, chunk_count=3, max_parallel=1),
            manifest, tmp_path / "work")
        assert set(summary.chunk_states.values()) == {"done"}
        open_intervals = 0
        for event in summary.events:
            if event["event"] == "launch":
                open_intervals += 1
                assert open_intervals == 1
            elif event["event"] in ("done", "discard"):
                open_intervals -= 1


class TestMerge:
    @staticmethod
    def fake_layout(tmp_path, outputs):
        """outputs: {chunk_id: {name: content}} -> (manifest, summary)."""
        chunks = []
        states = {}
        for cid, files in outputs.items():
            out = tmp_path / "work" / "chunks" / f"chunk_{cid:04d}" / "output"
            out.mkdir(parents=True)
            for name, content in files.items():
                (out / name).write_bytes(content)
            chunks.append((cid, ()))
            states[cid] = "done"
        manifest = harness.ChunkManifest(chunks=tuple(chunks), excluded=())
        summary = harness.HarnessSummary(chunk_states=states, restarts={},
                                         wall_time=0.0)
        return manifest, summary

    def test_name_collision_keeps_both_prefixed(self, tmp_path):
        manifest, summary = self.fake_layout(tmp_path, {
            0: {"x.bin": b"alpha"},
            2: {"x.bin": b"beta"},
        })
        index = harness.merge_outputs(manifest, summary, tmp_path / "work",
                                      tmp_path / "merged")
        names = {p.name for p in (tmp_path / "merged").iterdir()
                 if p.name != "provenance.json"}
        assert names == {"chunk_0000__x.bin", "chunk_0002__x.bin"}
        assert (tmp_path / "merged" / "chunk_0000__x.bin").read_bytes() == b"alpha"
        assert (tmp_path / "merged" / "chunk_0002__x.bin").read_bytes() == b"beta"
        assert index["chunk_0000__x.bin"]["chunk_id"] == 0
        assert index["chunk_0002__x.bin"]["chunk_id"] == 2

    def test_three_way_collision_all_prefixed(self, tmp_path):
        manifest, summary = self.fake_layout(tmp_path, {
            0: {"x.bin": b"a"}, 1: {"x.bin": b"b"}, 2: {"x.bin": b"c"},
        })
        index = harness.merge_outputs(manifest, summary, tmp_path / "work",
                                      tmp_path / "merged")
        assert set(index) == {"chunk_0000__x.bin", "chunk_0001__x.bin",
                              "chunk_0002__x.bin"}

    def test_identical_content_collision_raises(self, tmp_path):
        manifest, summary = self.fake_layout(tmp_path, {
            0: {"x.bin": b"same"},
            1: {"x.bin": b"same"},
        })
        with pytest.raises(harness.CollisionError):
            harness.merge_outputs(manifest, summary, tmp_path / "work",
                                  tmp_path / "merged")

    def test_provenance_rows_match_merged_files(self, tmp_path):
        manifest, summary = self.fake_layout(tmp_path, {
            0: {"a.bin": b"1", "b.bin": b"2"},
            1: {"c.bin": b"3", "a.bin": b"not-1"},
        })
        index = harness.merge_outputs(manifest, summary, tmp_path / "work",
                                      tmp_path / "merged")
        files = [p for p in (tmp_path / "merged").iterdir()
                 if p.name != "provenance.json"]
        assert len(index) == len(files) == 4
        on_disk = json.loads(
            (tmp_path / "merged" / "provenance.json").read_text())
        assert on_disk == index

    def test_only_done_chunks_merged(self, tmp_path):
        manifest, summary = self.fake_layout(tmp_path, {
            0: {"a.bin": b"1"},
            1: {"b.bin": b"2"},
        })
        summary.chunk_states[1] = "discarded"
        index = harness.merge_outputs(manifest, summary, tmp_path / "work",
                                      tmp_path / "merged")
        assert set(index) == {"a.bin"}


class TestStatusTable:
    def test_render_is_pure_and_stable(self):
        statuses = {
            0: harness.WorkerStatus(0, "done", 0, 100.0),
            1: harness.WorkerStatus(1, "running", 1, 104.0),
            2: harness.WorkerStatus(2, "pending"),
        }
        before = copy.deepcopy(statuses)
        first = harness.render_status(statuses, now=110.0)
        second = harness.render_status(statuses, now=110.0)
        assert first == second
        assert statuses == before
        assert "running" in first and "6.0s" in first
        assert first.splitlines()[0].strip().startswith("chunk")
        assert len(first.splitlines()) == 4

    def test_stream_receives_tables(self, tmp_path, worker_script,
                                    monkeypatch):
        import io
        make_corpus(tmp_path / "in", 2)
        manifest = harness.split_dataset(tmp_path / "in", 1)
        stream = io.StringIO()
        monkeypatch.setattr(harness, "STATUS_INTERVAL", 0.05)
        summary = harness.run(
            small_config(worker_script, chunk_count=1, stale_window=1.0),
            manifest, tmp_path / "work", status_stream=stream)
        assert set(summary.chunk_states.values()) == {"done"}
        assert "chunk" in stream.getvalue()
