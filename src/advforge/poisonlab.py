"""Label-poisoning experiments over GBDT classifiers.

A poisoning cell injects adversarial feature rows into the training set at a
given fraction, mislabelling a tau-share of them as benign, while keeping
the set's size and class balance fixed by removing one existing same-label
row per injected row.  The grid runs a baseline plus one cell per
(tau, fraction) combination, each with a seed derived from the run seed,
and emits evasion/F1 heatmaps with below-baseline cells flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gbdt import (
    DimensionMismatch,
    GbdtError,
    Hyperparams,
    TrainedModel,
    binary_metrics,
    f1_score,
    train,
)
from .records import Record, write_csv, write_jsonl

TAU_GRID = tuple(i / 10 for i in range(11))
FRACTION_GRID = (0.001, 0.0025, 0.005, 0.01, 0.02, 0.03, 0.05, 0.1, 0.2)


class PoisonLabError(Exception):
    pass


class PoolTooSmall(PoisonLabError):
    """Adversarial pool cannot supply the requested injection count."""


class InsufficientRemovableRows(PoisonLabError):
    """Not enough same-label originals to remove for balance."""


@dataclass(frozen=True)
class PoisonConfig(Record):
    tau: float
    poisoned_fraction: float
    rng_seed: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must lie in [0, 1]")
        if not 0.0 < self.poisoned_fraction < 1.0:
            raise ValueError("poisoned_fraction must lie in (0, 1)")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")


@dataclass(frozen=True)
class MetricsReport(Record):
    f1: float
    precision: float
    recall: float
    accuracy: float
    evasion_rate: float | None
    config: object = None  # PoisonConfig, "baseline", or None

    def __post_init__(self) -> None:
        for name in ("f1", "precision", "recall", "accuracy"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} out of [0, 1]: {value}")
        if self.evasion_rate is not None and not 0.0 <= self.evasion_rate <= 1.0:
            raise ValueError("evasion_rate out of [0, 1]")
        expected = f1_score(self.precision, self.recall)
        if abs(self.f1 - expected) > 1e-9:
            raise ValueError("f1 inconsistent with precision/recall")


def inject_poison(train_x: np.ndarray, train_y: np.ndarray,
                  pool_x: np.ndarray, config: PoisonConfig):
    """Inject poisoned rows, preserving size and class counts exactly.

    k = round(fraction * |train|) pool rows are drawn without replacement;
    round(tau * k) of them get the benign label, the rest malicious.  Each
    injected row displaces one randomly chosen original row of the same
    label.  Returns (x, y, log) with the injection log listing sampled pool
    rows, their labels, and removed original row indices.
    """
    train_x = np.asarray(train_x)
    train_y = np.asarray(train_y).astype(np.int64).ravel()
    pool_x = np.asarray(pool_x)
    if train_x.shape[0] != train_y.shape[0]:
        raise DimensionMismatch("features and labels disagree on row count")
    if train_x.shape[1] != pool_x.shape[1]:
        raise DimensionMismatch("train and pool disagree on feature count")

    n = train_x.shape[0]
    k = int(round(config.poisoned_fraction * n))
    if pool_x.shape[0] < k:
        raise PoolTooSmall(
            f"pool has {pool_x.shape[0]} rows, injection needs {k}")
    m = int(round(config.tau * k))

    rng = np.random.default_rng(config.rng_seed)
    picked = rng.choice(pool_x.shape[0], size=k, replace=False)
    injected_labels = np.concatenate([
        np.zeros(m, dtype=np.int64), np.ones(k - m, dtype=np.int64)])

    benign_rows = np.flatnonzero(train_y == 0)
    malicious_rows = np.flatnonzero(train_y == 1)
    if len(benign_rows) < m:
        raise InsufficientRemovableRows(
            f"need to remove {m} benign rows, have {len(benign_rows)}")
    if len(malicious_rows) < k - m:
        raise InsufficientRemovableRows(
            f"need to remove {k - m} malicious rows, have {len(malicious_rows)}")
    removed_benign = rng.choice(benign_rows, size=m, replace=False)
    removed_malicious = rng.choice(malicious_rows, size=k - m, replace=False)
    removed = np.concatenate([removed_benign, removed_malicious])

    keep = np.ones(n, dtype=bool)
    keep[removed] = False
    x_out = np.vstack([train_x[keep], pool_x[picked]])
    y_out = np.concatenate([train_y[keep], injected_labels])
    log = {
        "k": k,
        "mislabelled": m,
        "injected_pool_rows": picked.tolist(),
        "injected_labels": injected_labels.tolist(),
        "removed_train_rows": removed.tolist(),
    }
    return x_out, y_out, log


def _evasion(model: TrainedModel, adv_x: np.ndarray) -> float:
    if adv_x.shape[0] == 0:
        return 0.0
    return float((model.predict(adv_x) == 0).mean())


def evaluate(model: TrainedModel, test_x: np.ndarray, test_y: np.ndarray,
             adv_x: np.ndarray, config=None) -> MetricsReport:
    """Clean-set metrics at the model's decision threshold, plus the
    fraction of adversarial rows predicted benign."""
    preds = model.predict(np.asarray(test_x))
    scores = binary_metrics(np.asarray(test_y), preds)
    return MetricsReport(
        f1=scores["f1"], precision=scores["precision"],
        recall=scores["recall"], accuracy=scores["accuracy"],
        evasion_rate=_evasion(model, np.asarray(adv_x)), config=config)


def cross_evaluate(model: TrainedModel, test_x: np.ndarray,
                   test_y: np.ndarray, config=None) -> MetricsReport:
    """Same clean-set metrics on a foreign test set; no evasion component."""
    test_x = np.asarray(test_x)
    if test_x.ndim != 2 or test_x.shape[1] != model.feature_dim:
        raise DimensionMismatch(
            f"model expects {model.feature_dim} features, "
            f"got {test_x.shape[1] if test_x.ndim == 2 else 'non-2d'}")
    preds = model.predict(test_x)
    scores = binary_metrics(np.asarray(test_y), preds)
    return MetricsReport(
        f1=scores["f1"], precision=scores["precision"],
        recall=scores["recall"], accuracy=scores["accuracy"],
        evasion_rate=None, config=config)


def _heatmap_rows(tau_list, fraction_list, lookup, baseline_value):
    rows = []
    for tau in tau_list:
        row = [str(tau)]
        for fraction in fraction_list:
            value = lookup.get((tau, fraction))
            if value is None:
                row.append("")
            else:
                cell = f"{value:.6f}"
                if baseline_value is not None and value < baseline_value:
                    cell += "*"
                row.append(cell)
        rows.append(row)
    return rows


def run_grid(train_x, train_y, test_x, test_y, adv_pool, adv_test,
             hyperparams: Hyperparams, rng_seed: int = 0,
             tau_list=TAU_GRID, fraction_list=FRACTION_GRID,
             out_dir=None) -> dict:
    """Baseline plus one poisoned model per (tau, fraction) cell.

    Cell seeds are rng_seed XOR a 1-based cell index (0 would collide with
    the baseline's own seed).  A failing cell is recorded and skipped; the
    heatmaps leave its cell empty.
    """
    train_x = np.ascontiguousarray(np.asarray(train_x), dtype=np.float32)
    train_y = np.asarray(train_y).astype(np.int64).ravel()
    test_x = np.asarray(test_x)
    test_y = np.asarray(test_y)
    adv_pool = np.asarray(adv_pool)
    adv_test = np.asarray(adv_test)

    base_model = train(train_x, train_y, hyperparams, rng_seed=rng_seed)
    baseline = evaluate(base_model, test_x, test_y, adv_test,
                        config="baseline")

    cells = []
    failures = []
    cell_index = 0
    for tau in tau_list:
        for fraction in fraction_list:
            cell_index += 1
            config = PoisonConfig(tau=tau, poisoned_fraction=fraction,
                                  rng_seed=rng_seed ^ cell_index)
            try:
                px, py, _ = inject_poison(train_x, train_y, adv_pool, config)
                model = train(px, py, hyperparams, rng_seed=config.rng_seed)
                cells.append(evaluate(model, test_x, test_y, adv_test,
                                      config=config))
            except (PoisonLabError, GbdtError) as exc:
                failures.append({"tau": tau, "poisoned_fraction": fraction,
                                 "error": str(exc)})

    result = {"baseline": baseline, "cells": cells, "failures": failures}
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        evasion_map = {(r.config.tau, r.config.poisoned_fraction):
                       r.evasion_rate for r in cells}
        f1_map = {(r.config.tau, r.config.poisoned_fraction): r.f1
                  for r in cells}
        header = ["tau"] + [str(f) for f in fraction_list]
        write_csv(out / "evasion_heatmap.csv", header,
                  _heatmap_rows(tau_list, fraction_list, evasion_map,
                                baseline.evasion_rate))
        write_csv(out / "f1_heatmap.csv", header,
                  _heatmap_rows(tau_list, fraction_list, f1_map, baseline.f1))
        write_jsonl(out / "reports.jsonl",
                    [r.to_dict() for r in [baseline] + cells])
        write_jsonl(out / "failures.jsonl", failures)
    return result
