"""Tests for poison injection, evaluation, and the experiment grid."""

import csv
import json
import math

import numpy as np
import pytest

from advforge import poisonlab
from advforge.gbdt import DimensionMismatch, Hyperparams, Tree, TrainedModel
from advforge.poisonlab import (
    FRACTION_GRID,
    TAU_GRID,
    InsufficientRemovableRows,
    MetricsReport,
    PoisonConfig,
    PoolTooSmall,
    cross_evaluate,
    evaluate,
    inject_poison,
    run_grid,
)
from advforge.poisonlab import train as lab_train
from advforge.records import ordered_map

DIM = 16


def clusters(rng, n_per, dim=DIM, informative=4, shift=4.0):
    benign = rng.normal(0.0, 1.0, size=(n_per, dim))
    malicious = rng.normal(0.0, 1.0, size=(n_per, dim))
    malicious[:, :informative] += shift
    x = np.vstack([benign, malicious])
    y = np.concatenate([np.zeros(n_per, np.int64), np.ones(n_per, np.int64)])
    return x, y


def adv_cluster(rng, n, dim=DIM, informative=4, center=2.0):
    rows = rng.normal(0.0, 1.0, size=(n, dim))
    rows[:, :informative] += center
    return rows


def stump_model(dim=DIM):
    """Hand-built single stump: x0 <= 0.5 goes benign, else malicious."""
    tree = Tree(
        feature=np.array([0, -1, -1], dtype=np.int32),
        threshold=np.array([0.5, 0.0, 0.0]),
        left=np.array([1, -1, -1], dtype=np.int32),
        right=np.array([2, -1, -1], dtype=np.int32),
        value=np.array([0.0, -10.0, 10.0]),
    )
    return TrainedModel(trees=(tree,), base_score=0.0, learning_rate=1.0,
                        feature_dim=dim)


class TestPoisonConfig:
    def test_validation(self):
        PoisonConfig(tau=0.0, poisoned_fraction=0.1, rng_seed=1)
        with pytest.raises(ValueError):
            PoisonConfig(tau=1.1, poisoned_fraction=0.1, rng_seed=1)
        with pytest.raises(ValueError):
            PoisonConfig(tau=0.5, poisoned_fraction=0.0, rng_seed=1)
        with pytest.raises(ValueError):
            PoisonConfig(tau=0.5, poisoned_fraction=1.0, rng_seed=1)
        with pytest.raises(ValueError):
            PoisonConfig(tau=0.5, poisoned_fraction=0.1, rng_seed=-3)


class TestMetricsReport:
    def test_f1_consistency_enforced(self):
        with pytest.raises(ValueError):
            MetricsReport(f1=0.9, precision=0.5, recall=0.5, accuracy=0.5,
                          evasion_rate=0.1)

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            MetricsReport(f1=0.0, precision=0.0, recall=0.0, accuracy=1.5,
                          evasion_rate=0.0)

    def test_round_trip_dict(self):
        config = PoisonConfig(tau=0.5, poisoned_fraction=0.01, rng_seed=9)
        rep = MetricsReport(f1=0.5, precision=0.5, recall=0.5, accuracy=0.5,
                            evasion_rate=0.25, config=config)
        obj = rep.to_dict()
        assert obj["config"] == {"tau": 0.5, "poisoned_fraction": 0.01,
                                 "rng_seed": 9}
        assert obj["evasion_rate"] == 0.25


class TestInjectPoison:
    def test_tau_zero_all_malicious(self, rng):
        x, y = clusters(rng, 100)
        pool = adv_cluster(rng, 50)
        config = PoisonConfig(tau=0.0, poisoned_fraction=0.1, rng_seed=3)
        px, py, log = inject_poison(x, y, pool, config)
        assert log["k"] == 20
        assert log["mislabelled"] == 0
        assert all(lab == 1 for lab in log["injected_labels"])
        assert len(py) == len(y)

    def test_balance_arithmetic_at_ten_thousand(self, rng):
        x, y = clusters(rng, 5_000)
        pool = adv_cluster(rng, 100)
        config = PoisonConfig(tau=1.0, poisoned_fraction=0.005, rng_seed=4)
        px, py, log = inject_poison(x, y, pool, config)
        assert log["k"] == 50
        assert log["mislabelled"] == 50
        assert len(py) == 10_000
        assert int((py == 0).sum()) == int((y == 0).sum())
        assert int((py == 1).sum()) == int((y == 1).sum())
        removed_labels = y[np.array(log["removed_train_rows"])]
        assert (removed_labels == 0).all()

    def test_half_tau_recount_oracle(self, rng):
        x, y = clusters(rng, 500)
        pool = adv_cluster(rng, 200)
        config = PoisonConfig(tau=0.5, poisoned_fraction=0.1, rng_seed=5)
        px, py, log = inject_poison(x, y, pool, config)
        assert log["k"] == 100
        assert log["mislabelled"] == 50

        # Rebuild the output from the log alone and compare exactly.
        removed = np.array(log["removed_train_rows"])
        keep = np.ones(len(y), dtype=bool)
        keep[removed] = False
        expected_x = np.vstack([x[keep], pool[np.array(log["injected_pool_rows"])]])
        expected_y = np.concatenate([y[keep],
                                     np.array(log["injected_labels"])])
        assert np.array_equal(px, expected_x)
        assert np.array_equal(py, expected_y)
        # Removed rows carry the same labels as the injected rows.
        assert sorted(y[removed].tolist()) == sorted(log["injected_labels"])
        assert int((py == 1).sum()) == int((y == 1).sum())

    @pytest.mark.parametrize("train_dtype,pool_dtype", [
        (np.float32, np.float32), (np.float32, np.float64),
        (np.float64, np.float32)])
    def test_rows_and_dtype_match_a_stack_of_the_log(self, rng, train_dtype,
                                                      pool_dtype):
        x, y = clusters(rng, 200)
        x = x.astype(train_dtype)
        pool = adv_cluster(rng, 80).astype(pool_dtype)
        config = PoisonConfig(tau=0.3, poisoned_fraction=0.2, rng_seed=6)
        px, py, log = inject_poison(x, y, pool, config)
        keep = np.ones(len(y), dtype=bool)
        keep[log["removed_train_rows"]] = False
        expected = np.vstack([x[keep], pool[log["injected_pool_rows"]]])
        assert px.dtype == expected.dtype
        assert px.tobytes() == expected.tobytes()

    def test_pool_too_small(self, rng):
        x, y = clusters(rng, 100)
        pool = adv_cluster(rng, 3)
        with pytest.raises(PoolTooSmall):
            inject_poison(x, y, pool,
                          PoisonConfig(tau=0.5, poisoned_fraction=0.1,
                                       rng_seed=1))

    def test_insufficient_removable(self, rng):
        x, y = clusters(rng, 100)
        y = np.ones_like(y)
        y[:2] = 0
        pool = adv_cluster(rng, 50)
        with pytest.raises(InsufficientRemovableRows):
            inject_poison(x, y, pool,
                          PoisonConfig(tau=1.0, poisoned_fraction=0.1,
                                       rng_seed=1))

    def test_deterministic(self, rng):
        x, y = clusters(rng, 200)
        pool = adv_cluster(rng, 60)
        config = PoisonConfig(tau=0.3, poisoned_fraction=0.05, rng_seed=77)
        a = inject_poison(x, y, pool, config)
        b = inject_poison(x, y, pool, config)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
        assert a[2] == b[2]

    def test_dimension_mismatch(self, rng):
        x, y = clusters(rng, 50)
        pool = adv_cluster(rng, 30, dim=DIM + 1)
        with pytest.raises(DimensionMismatch):
            inject_poison(x, y, pool,
                          PoisonConfig(tau=0.5, poisoned_fraction=0.1,
                                       rng_seed=1))


class TestEvaluate:
    def test_hand_confusion_counts(self):
        model = stump_model()
        # x0 pattern: predictions 1,1,0,0 against labels 1,0,1,0.
        test_x = np.zeros((4, DIM))
        test_x[:, 0] = [1.0, 1.0, 0.0, 0.0]
        test_y = np.array([1, 0, 1, 0])
        adv = np.zeros((4, DIM))
        adv[:, 0] = [0.0, 0.0, 0.0, 1.0]  # three of four predicted benign
        rep = evaluate(model, test_x, test_y, adv)
        assert rep.precision == 0.5
        assert rep.recall == 0.5
        assert rep.f1 == 0.5
        assert rep.accuracy == 0.5
        assert rep.evasion_rate == 0.75

    def test_perfect_model_f1_one(self):
        model = stump_model()
        test_x = np.zeros((6, DIM))
        test_x[:3, 0] = 1.0
        test_y = np.array([1, 1, 1, 0, 0, 0])
        rep = evaluate(model, test_x, test_y, np.zeros((0, DIM)))
        assert rep.f1 == 1.0
        assert rep.evasion_rate == 0.0

    def test_f1_harmonic_bound(self, rng):
        x, y = clusters(rng, 120)
        model = lab_train(x, y, Hyperparams(num_leaves=4, min_data_in_leaf=10,
                                            max_rounds=5, early_stop_rounds=0),
                          rng_seed=2)
        rep = evaluate(model, x, y, adv_cluster(rng, 40))
        lo = min(rep.precision, rep.recall)
        hi = max(rep.precision, rep.recall)
        assert lo <= rep.f1 <= hi


class TestCrossEvaluate:
    def test_matches_evaluate_on_own_set(self, rng):
        x, y = clusters(rng, 150)
        model = lab_train(x, y, Hyperparams(num_leaves=4, min_data_in_leaf=10,
                                            max_rounds=5, early_stop_rounds=0),
                          rng_seed=3)
        own = evaluate(model, x, y, np.zeros((0, DIM)))
        cross = cross_evaluate(model, x, y)
        assert cross.f1 == own.f1
        assert cross.precision == own.precision
        assert cross.recall == own.recall
        assert cross.accuracy == own.accuracy
        assert cross.evasion_rate is None

    def test_dimension_mismatch(self, rng):
        x, y = clusters(rng, 60)
        model = lab_train(x, y, Hyperparams(num_leaves=2, min_data_in_leaf=5,
                                            max_rounds=2, early_stop_rounds=0),
                          rng_seed=1)
        with pytest.raises(DimensionMismatch):
            cross_evaluate(model, np.zeros((4, DIM + 2)), np.zeros(4))


GRID_HP = Hyperparams(learning_rate=0.2, num_leaves=4, min_data_in_leaf=10,
                      max_rounds=6, early_stop_rounds=0)


class TestRunGrid:
    def make_sets(self, rng, n_per=150):
        train_x, train_y = clusters(rng, n_per)
        test_x, test_y = clusters(rng, n_per // 2)
        pool = adv_cluster(rng, 2 * n_per)
        adv_test = adv_cluster(rng, n_per // 2)
        return train_x, train_y, test_x, test_y, pool, adv_test

    def test_small_grid_shape_and_files(self, tmp_path, rng):
        sets = self.make_sets(rng)
        result = run_grid(*sets, GRID_HP, rng_seed=10,
                          tau_list=(0.0, 1.0), fraction_list=(0.1,),
                          out_dir=tmp_path)
        assert result["baseline"].config == "baseline"
        assert len(result["cells"]) == 2
        assert result["failures"] == []
        with open(tmp_path / "evasion_heatmap.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["tau", "0.1"]
        assert len(rows) == 3
        lines = (tmp_path / "reports.jsonl").read_text().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[0])["config"] == "baseline"

    def test_cell_failure_recorded_and_grid_continues(self, tmp_path, rng):
        train_x, train_y, test_x, test_y, _, adv_test = self.make_sets(rng)
        tiny_pool = adv_cluster(rng, 5)
        result = run_grid(train_x, train_y, test_x, test_y, tiny_pool,
                          adv_test, GRID_HP, rng_seed=10,
                          tau_list=(0.5,), fraction_list=(0.01, 0.2),
                          out_dir=tmp_path)
        assert len(result["cells"]) == 1
        assert len(result["failures"]) == 1
        assert result["failures"][0]["poisoned_fraction"] == 0.2
        with open(tmp_path / "evasion_heatmap.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][2] == ""  # failed cell left empty

    def test_cell_matches_retrain_by_hand(self, rng):
        sets = self.make_sets(rng)
        train_x, train_y, test_x, test_y, pool, adv_test = sets
        seed = 31
        result = run_grid(*sets, GRID_HP, rng_seed=seed,
                          tau_list=(1.0,), fraction_list=(0.1,))
        (cell,) = result["cells"]

        config = PoisonConfig(tau=1.0, poisoned_fraction=0.1,
                              rng_seed=seed ^ 1)
        px, py, _ = inject_poison(
            np.ascontiguousarray(train_x, dtype=np.float32), train_y,
            pool, config)
        model = lab_train(px, py, GRID_HP, rng_seed=config.rng_seed)
        expected = evaluate(model, test_x, test_y, adv_test, config=config)
        assert cell == expected

    def test_below_baseline_cells_flagged(self, tmp_path, rng):
        sets = self.make_sets(rng)
        result = run_grid(*sets, GRID_HP, rng_seed=7,
                          tau_list=(0.0, 0.5, 1.0), fraction_list=(0.05, 0.2),
                          out_dir=tmp_path)
        base = result["baseline"].evasion_rate
        by_key = {(r.config.tau, r.config.poisoned_fraction): r
                  for r in result["cells"]}
        with open(tmp_path / "evasion_heatmap.csv") as fh:
            rows = list(csv.reader(fh))
        fractions = [float(c) for c in rows[0][1:]]
        for row in rows[1:]:
            tau = float(row[0])
            for fraction, cell in zip(fractions, row[1:]):
                rep = by_key[(tau, fraction)]
                flagged = cell.endswith("*")
                value = float(cell.rstrip("*"))
                assert value == pytest.approx(rep.evasion_rate, abs=5e-7)
                assert flagged == (rep.evasion_rate < base)

    def test_grid_constants_shape(self):
        assert len(TAU_GRID) == 11
        assert len(FRACTION_GRID) == 9
        assert TAU_GRID[0] == 0.0 and TAU_GRID[-1] == 1.0
        assert math.isclose(TAU_GRID[3] - TAU_GRID[2], 0.1)

    @staticmethod
    def with_cores(monkeypatch, cores):
        """Make ``run_grid`` see ``cores`` available cores; returns the
        list of worker counts it hands to ``ordered_map``."""
        seen = []

        def counted(fn, items, workers):
            seen.append(workers)
            return ordered_map(fn, items, workers)

        monkeypatch.setattr(poisonlab.os, "sched_getaffinity",
                            lambda _pid: set(range(cores)), raising=False)
        monkeypatch.setattr(poisonlab, "ordered_map", counted)
        return seen

    def test_workers_write_identical_files(self, tmp_path, rng, monkeypatch):
        train_x, train_y, test_x, test_y, _, adv_test = self.make_sets(rng)
        pool = adv_cluster(rng, 20)  # fraction 0.2 needs 60 rows
        results = []
        for cores in (1, 2):
            seen = self.with_cores(monkeypatch, cores)
            results.append(run_grid(
                train_x, train_y, test_x, test_y, pool, adv_test, GRID_HP,
                rng_seed=3, tau_list=(0.0, 0.5, 1.0),
                fraction_list=(0.05, 0.2, 0.01),
                out_dir=tmp_path / str(cores)))
            assert seen == [cores]
        serial, parallel = results
        assert len(serial["cells"]) == 6
        assert [f["poisoned_fraction"] for f in serial["failures"]] == [0.2] * 3
        assert serial == parallel
        for name in ("reports.jsonl", "failures.jsonl", "evasion_heatmap.csv",
                     "f1_heatmap.csv"):
            assert ((tmp_path / "1" / name).read_bytes()
                    == (tmp_path / "2" / name).read_bytes()), name

    def test_workers_capped(self, rng, monkeypatch):
        # more cores than were measured still train two units at a time
        seen = self.with_cores(monkeypatch, 64)
        run_grid(*self.make_sets(rng, n_per=60), GRID_HP, rng_seed=1,
                 tau_list=(0.5,), fraction_list=(0.05,))
        assert seen == [poisonlab._MAX_WORKERS] == [2]

    def test_determinism(self, rng):
        sets = self.make_sets(rng, n_per=100)
        a = run_grid(*sets, GRID_HP, rng_seed=5,
                     tau_list=(0.5,), fraction_list=(0.1,))
        b = run_grid(*sets, GRID_HP, rng_seed=5,
                     tau_list=(0.5,), fraction_list=(0.1,))
        assert a["baseline"] == b["baseline"]
        assert a["cells"] == b["cells"]
