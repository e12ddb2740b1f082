"""The shared Record serialization, over every class that uses it."""

import pytest

from advforge import cli, gbdt, harness, poisonlab, records, scoring, selector

HARNESS = harness.HarnessConfig(
    worker_command="w {input_dir} {output_dir} {log_file}",
    chunk_count=3, load_gate={"target_load": 1.5})
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
    cli.ScorerConfig(kind="http", endpoint="http://127.0.0.1:1/"),
    cli.QuotaConfig(daily_limit=3, state_path="q.json"),
    cli.GlobalConfig(rng_seed=4, harness=HARNESS,
                     scorer=cli.ScorerConfig(kind="local", model_path="m"),
                     quota=cli.QuotaConfig(daily_limit=3, state_path="q")),
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


def test_engine_verdicts_checks_the_map_shape():
    assert records.engine_verdicts(ENGINES, "col") == {"a": True, "b": False}
    for bad in ({"a": True}, {"a": {}}, {"a": {"detected": 1}}, ["a"]):
        with pytest.raises(ValueError, match="^col"):
            records.engine_verdicts(bad, "col")
