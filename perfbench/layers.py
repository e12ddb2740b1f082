"""Per-layer metrics of a traced run, from its spans and checked outputs.

Every metric is reported on every workload; one whose layer the workload
never calls reads 0.  Times are per call over the traced pass.  The
``synth`` and ``gbdt.train`` figures also count set-up spans, because
``campaign`` and ``dataset`` train and write corpora only at set-up.
Counts from outputs (``scoring.service.*``, ``scoring.quota.used``,
``scoring.QuotaState.save.calls``) are per session.
"""

from __future__ import annotations

import statistics

from spans import LAYERS, Summary

CLI_SUBCOMMANDS = ("mutate", "poison_run", "harness_run", "score",
                   "verdicts", "select", "stats")
US, MS = 1e6, 1e3


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(tracer, outcome, traced_wall: float, overhead: float) -> dict:
    """name -> (value, unit) for every per-layer metric.  Layer shares are
    self time over the traced pass's wall time."""
    run = Summary(tracer.spans, {"pass"})
    both = Summary(tracer.spans, {"setup", "pass"})
    facts = outcome.facts
    out = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    put("pe.parse.us_per_call", run.per_call("pe.parse") * US, "us")
    put("pe.serialize.us_per_call", run.per_call("pe.serialize") * US, "us")
    put("pe.validate.us_per_call", run.per_call("pe.validate") * US, "us")

    steps = facts.get("steps", 0)
    scored_steps = run.calls["scoring.score"] - facts.get("campaigns", 0)
    put("mutator.apply_action.us_per_call",
        run.per_call("mutator.apply_action") * US, "us")
    put("mutator.run_campaign.self_s",
        run.self_per_call("mutator.run_campaign"), "s")
    put("mutator.skipped_share", _ratio(steps - scored_steps, steps), "share")
    put("mutator.accepted_share", _ratio(facts.get("accepted", 0), steps),
        "share")

    put("features.extract.us_per_call",
        run.per_call("features.extract") * US, "us")
    put("features.extract.mb_per_s",
        _ratio(run.work["features.extract"] / 1e6,
               run.total["features.extract"]), "MB/s")

    calls = run.by_call["gbdt.TrainedModel.predict_proba"]
    rows = [d for n, d in calls if n == 1]
    batch = [(n, d) for n, d in calls if n > 1]
    put("gbdt.predict_proba.row_ms",
        statistics.fmean(rows) * MS if rows else 0, "ms")
    put("gbdt.predict_proba.batch_us_per_row",
        _ratio(sum(d for _, d in batch), sum(n for n, _ in batch)) * US, "us")
    put("gbdt.train.s_per_call", both.per_call("gbdt.train"), "s")
    put("gbdt.train.ms_per_tree", both.per_work("gbdt.train") * MS, "ms")
    put("gbdt.train.trees",
        _ratio(both.work["gbdt.train"], both.calls["gbdt.train"]), "count")
    leaves = tracer.train_leaves
    put("gbdt.train.leaves", statistics.fmean(leaves) if leaves else 0,
        "count")
    put("gbdt.TrainedModel.load.ms",
        run.per_call("gbdt.TrainedModel.load") * MS, "ms")

    sessions = facts.get("sessions", 0)
    put("scoring.score.ms_per_call", run.per_call("scoring.score") * MS, "ms")
    put("scoring.classify_dir.files_per_s",
        _ratio(run.work["scoring.classify_dir"],
               run.total["scoring.classify_dir"]), "1/s")
    put("scoring.verdicts_submit_poll.s",
        run.per_call("scoring.verdicts_submit_poll"), "s")
    put("scoring.QuotaState.save.calls",
        _ratio(run.calls["scoring.QuotaState.save"], sessions), "count")
    put("scoring.QuotaState.save.ms_per_call",
        run.per_call("scoring.QuotaState.save") * MS, "ms")
    put("scoring.QuotaState.save.mb",
        _ratio(run.work["scoring.QuotaState.save"] / 1e6,
               run.calls["scoring.QuotaState.save"]), "MB")
    for key in ("lookups", "submits", "polls"):
        put(f"scoring.service.{key}", _ratio(facts.get(key, 0), sessions),
            "count")
    put("scoring.quota.used", _ratio(facts.get("quota_used", 0), sessions),
        "count")

    lags = facts.get("reap_lags", [])
    put("harness.split_dataset.s", run.per_call("harness.split_dataset"), "s")
    put("harness.run.s", run.per_call("harness.run"), "s")
    put("harness.chunks_per_s",
        _ratio(facts.get("chunks", 0), run.total["harness.run"]), "1/s")
    put("harness.merge_outputs.s", run.per_call("harness.merge_outputs"), "s")
    put("harness.reap_lag_p50_s", statistics.median(lags) if lags else 0, "s")
    put("harness.reap_lag_max_s", max(lags) if lags else 0, "s")
    put("harness.restarts", facts.get("restarts", 0), "count")
    put("harness.discarded", facts.get("discarded", 0), "count")

    put("selector.assemble_dataset.s",
        run.per_call("selector.assemble_dataset"), "s")
    put("selector.pick_best_record.us_per_call",
        run.per_call("selector.pick_best_record") * US, "us")

    analytics = sum(t for n, t in run.total.items()
                    if n.startswith("analytics."))
    put("analytics.s", _ratio(analytics, run.calls["cli.stats"]), "s")

    put("poisonlab.inject_poison.ms_per_call",
        run.per_call("poisonlab.inject_poison") * MS, "ms")
    put("poisonlab.evaluate.ms_per_call",
        run.per_call("poisonlab.evaluate") * MS, "ms")
    put("poisonlab.run_grid.self_s",
        run.self_per_call("poisonlab.run_grid"), "s")

    put("synth.write_corpus.s", both.per_call("synth.write_corpus"), "s")

    for sub in CLI_SUBCOMMANDS:
        put(f"cli.{sub}.self_s", run.self_per_call(f"cli.{sub}"), "s")

    for layer, seconds in run.layer_self().items():
        put(f"layer.{layer}.self_share", _ratio(seconds, traced_wall),
            "share")
    put("trace.overhead_share", overhead, "share")
    return out

