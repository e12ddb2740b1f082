"""What perfbench's tracer reads from gbdt.

The benchmark's traced set-up trains its surrogate under
``perfbench/spans.py``: the tracer wraps ``TrainedModel.predict_proba``
and ``TrainedModel.load`` as found in the class's own ``__dict__``, sizes
a ``gbdt.train`` span by ``len(model.trees)`` and records
``model.total_leaves``.  A change to gbdt that drops any of these makes
the traced benchmark exit 1; this test fails first.
"""

import importlib
from pathlib import Path

import numpy as np

from advforge import gbdt

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_spans_train_predict_and_load(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 3))
    y = (x[:, 0] > 0).astype(float)
    hp = gbdt.Hyperparams(num_leaves=4, min_data_in_leaf=2, max_rounds=3,
                          early_stop_rounds=0)
    tracer = spans.Tracer()
    with tracer.install():
        model = gbdt.train(x, y, hp)
        model.predict_proba(x[0])
        model.save(tmp_path / "model.json")
        gbdt.TrainedModel.load(tmp_path / "model.json")

    by_name = {}
    for name, _start, _end, _parent, n, _phase in tracer.spans:
        by_name.setdefault(name, []).append(n)
    assert by_name["gbdt.train"] == [len(model.trees)]
    assert tracer.train_leaves == [model.total_leaves]
    assert by_name["gbdt.TrainedModel.predict_proba"] == [1]
    assert len(by_name["gbdt.TrainedModel.load"]) == 1
