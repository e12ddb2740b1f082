"""The shared Record serialization, over every class that uses it."""

import sys
import threading
import time
from unittest import mock

import pytest

from advforge import (cli, gbdt, harness, pe, poisonlab, records, scoring,
                      selector)

HARNESS = harness.HarnessConfig(
    worker_command="w {input_dir} {output_dir} {log_file}",
    chunk_count=3)
ENGINES = {"a": {"detected": True}, "b": {"detected": False}}

RECORDS = [
    gbdt.Hyperparams(learning_rate=0.1, num_leaves=7, max_rounds=9),
    HARNESS,
    poisonlab.PoisonConfig(tau=0.5, poisoned_fraction=0.01, rng_seed=9),
    poisonlab.MetricsReport(f1=0.5, precision=0.5, recall=0.5, accuracy=0.5,
                            evasion_rate=0.25, config="baseline"),
    selector.SelectionConstants(maximum_size=1000),
    selector.CandidateRecord(generator="g", ember_score=0.4, orig_size=10,
                             modified_size=12, path="p", sha256_adv="a",
                             sha256_orig="o"),
    selector.SourceSample(sha256="o", label_scheme="family",
                          label_value="zeus", ember_score=0.9,
                          engine_detections=ENGINES),
    selector.FinalRecord(sha256_orig="o", sha256_adv="a",
                         label={"scheme": "family", "value": "zeus"},
                         generator="g", ember_score_orig=0.9,
                         ember_score_adv=0.4, orig_size=10, adv_size=12),
    scoring.PendingSubmission(sha256="cd" * 32, analysis_id="x1",
                              submitted_at=5.0),
    scoring.MultiEngineReport.from_engines("cd" * 32, 123.5, ENGINES,
                                           top_group=("a",)),
    pe.validate(b"MZ"),
    cli.ScorerConfig(kind="http", endpoint="http://127.0.0.1:1/"),
    scoring.QuotaConfig(daily_limit=3, state_path="q.json"),
    cli.GlobalConfig(rng_seed=4, harness=HARNESS,
                     scorer=cli.ScorerConfig(kind="local", model_path="m"),
                     quota=scoring.QuotaConfig(daily_limit=3, state_path="q")),
]
IDS = [type(r).__name__ for r in RECORDS]


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_round_trip(record):
    assert type(record).from_dict(record.to_dict()) == record


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_unknown_key_rejected(record):
    with pytest.raises(ValueError, match="bogus"):
        type(record).from_dict({**record.to_dict(), "bogus": 1})


def test_to_dict_passes_dicts_through():
    report = RECORDS[IDS.index("MultiEngineReport")]
    assert report.to_dict()["engines"] is report.engines


def test_file_row_turns_a_failure_into_an_error_row(tmp_path):
    path = tmp_path / "a.bin"
    path.write_bytes(b"abc")

    def bad(_path, _data):
        raise ValueError("bad")

    assert records.file_row(path, lambda _path, data: {"size": len(data)}
                            ) == {"path": str(path), "size": 3}
    assert set(records.file_row(tmp_path / "gone.bin", bad)) == {
        "path", "error"}
    assert records.file_row(path, bad, (ValueError,)) == {
        "path": str(path), "error": "bad"}
    with pytest.raises(ValueError):
        records.file_row(path, bad)


def test_engine_verdicts_checks_the_map_shape():
    assert records.engine_verdicts(ENGINES, "col") == {"a": True, "b": False}
    for bad in ({"a": True}, {"a": {}}, {"a": {"detected": 1}}, ["a"]):
        with pytest.raises(ValueError, match="^col"):
            records.engine_verdicts(bad, "col")


class TestOrderedMap:
    def test_results_in_input_order_each_item_once(self):
        calls = []

        def fn(i):
            calls.append(i)
            time.sleep((i * 7919 % 5) * 1e-4)
            return i * i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = records.ordered_map(fn, range(300), 8)
        finally:
            sys.setswitchinterval(interval)
        assert got == [i * i for i in range(300)]
        assert sorted(calls) == list(range(300))

    def test_one_worker_starts_no_thread(self):
        callers = set()

        def fn(i):
            callers.add(threading.get_ident())
            return -i

        with mock.patch.object(records.threading, "Thread",
                               side_effect=AssertionError("thread started")):
            assert records.ordered_map(fn, [1, 2, 3], 1) == [-1, -2, -3]
        assert callers == {threading.get_ident()}

    def test_calling_thread_is_a_worker(self):
        callers = []
        both = threading.Barrier(2, timeout=10)

        def fn(i):
            callers.append(threading.get_ident())
            both.wait()  # each of two workers holds one item
            return i

        assert records.ordered_map(fn, [0, 1], 2) == [0, 1]
        assert len(set(callers)) == 2
        assert threading.get_ident() in callers

    def test_lowest_failed_index_raised_after_workers_stop(self):
        started = []
        workers = set()
        second_failed = threading.Event()

        def fn(i):
            started.append(i)
            workers.add(threading.current_thread())
            if i == 0:
                assert second_failed.wait(timeout=10)
                raise ValueError("item 0")
            if i == 1:
                second_failed.set()
                raise KeyError("item 1")
            return i

        with pytest.raises(ValueError, match="item 0"):
            records.ordered_map(fn, range(50), 2)
        assert sorted(started) == [0, 1]  # no item starts after a failure
        (other,) = workers - {threading.current_thread()}
        assert not other.is_alive()

    def test_empty_input_and_bad_worker_count(self):
        with mock.patch.object(records.threading, "Thread",
                               side_effect=AssertionError("thread started")):
            assert records.ordered_map(abs, [], 4) == []
        with pytest.raises(ValueError):
            records.ordered_map(abs, [1], 0)
