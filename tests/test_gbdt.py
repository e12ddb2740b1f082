"""Trainer tests: closed-form oracles, loss monotonicity, determinism."""

import math

import numpy as np
import pytest

from advforge import gbdt
from advforge.gbdt import (
    DegenerateData,
    DimensionMismatch,
    Hyperparams,
    TrainedModel,
    binary_metrics,
    f1_score,
    logistic_loss,
    train,
)


def _sigmoid(v):
    return 1.0 / (1.0 + math.exp(-v))


class TestLeafValues:
    def test_closed_form_on_four_rows(self):
        # one round, stump on a 4-row fixture; leaf values must equal
        # -sum(g) / (sum(h) + lambda) computed by hand from the base score
        x = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        lam = 1.0
        hp = Hyperparams(
            learning_rate=0.1,
            num_leaves=2,
            min_data_in_leaf=1,
            max_rounds=1,
            early_stop_rounds=0,
            l2_lambda=lam,
        )
        model = train(x, y, hp, rng_seed=0)
        assert len(model.trees) == 1
        tree = model.trees[0]

        base = math.log(0.5 / 0.5)
        p = _sigmoid(base)
        g_left = (p - 0.0) * 2  # rows 0,1
        h_left = p * (1 - p) * 2
        g_right = (p - 1.0) * 2  # rows 2,3
        h_right = h_left
        want_left = -g_left / (h_left + lam)
        want_right = -g_right / (h_right + lam)

        leaf_vals = sorted(tree.value[tree.feature < 0])
        assert leaf_vals[0] == pytest.approx(want_left, abs=1e-12)
        assert leaf_vals[1] == pytest.approx(want_right, abs=1e-12)

    def test_huge_lambda_shrinks_leaves_to_zero(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(80, 4))
        y = (x[:, 0] > 0).astype(float)
        hp = Hyperparams(
            num_leaves=8,
            min_data_in_leaf=1,
            max_rounds=5,
            early_stop_rounds=0,
            l2_lambda=1e9,
        )
        model = train(x, y, hp, rng_seed=0)
        for tree in model.trees:
            assert np.abs(tree.value[tree.feature < 0]).max() < 1e-6


class TestStump:
    def test_separable_stump_matches_enumeration(self):
        rng = np.random.default_rng(11)
        neg = rng.uniform(-5.0, -0.5, 40)
        pos = rng.uniform(0.5, 5.0, 40)
        x = np.concatenate([neg, pos]).reshape(-1, 1)
        y = np.concatenate([np.zeros(40), np.ones(40)])
        hp = Hyperparams(
            learning_rate=0.5,
            num_leaves=2,
            min_data_in_leaf=1,
            max_rounds=1,
            early_stop_rounds=0,
        )
        model = train(x, y, hp, rng_seed=0)
        tree = model.trees[0]
        split_thr = float(tree.threshold[tree.feature >= 0][0])

        # threshold must sit in the separating gap
        assert neg.max() < split_thr < pos.min()

        # brute-force enumeration of every candidate midpoint: the chosen
        # threshold must attain the maximum gain
        base = 0.0
        p = _sigmoid(base)
        g = p - y
        h = np.full_like(y, p * (1 - p))
        xs = np.sort(x[:, 0].astype(np.float32))
        best_gain, best_thr = -np.inf, None
        for i in range(len(xs) - 1):
            if xs[i] == xs[i + 1]:
                continue
            thr = (float(xs[i]) + float(xs[i + 1])) / 2
            mask = x[:, 0].astype(np.float32) <= thr
            gl, hl = g[mask].sum(), h[mask].sum()
            gr, hr = g[~mask].sum(), h[~mask].sum()
            gain = gl * gl / hl + gr * gr / hr - (gl + gr) ** 2 / (hl + hr)
            if gain > best_gain:
                best_gain, best_thr = gain, thr
        assert split_thr == pytest.approx(best_thr, abs=1e-9)

        # perfectly separable: train accuracy 1.0
        pred = model.predict(x)
        assert (pred == y).all()


class TestTraining:
    def test_loss_non_increasing_over_50_datasets(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(40, 120))
            d = int(rng.integers(2, 8))
            x = rng.normal(size=(n, d))
            w = rng.normal(size=d)
            y = (x @ w + 0.3 * rng.normal(size=n) > 0).astype(float)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            hp = Hyperparams(
                learning_rate=0.1,
                num_leaves=7,
                min_data_in_leaf=2,
                max_rounds=12,
                early_stop_rounds=0,
                feature_fraction=1.0,
                bagging_fraction=1.0,
            )
            model = train(x, y, hp, rng_seed=seed)
            trace = model.train_loss_trace
            start = logistic_loss(
                np.full(n, model.base_score), y
            )
            seq = (start,) + trace
            assert all(
                b <= a + 1e-12 for a, b in zip(seq, seq[1:])
            ), f"loss increased on dataset seed {seed}"

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(9)
        raws = rng.normal(scale=3.0, size=100)
        ys = rng.integers(0, 2, 100).astype(float)
        eps = 1e-6
        for raw, y in zip(raws, ys):
            arr_y = np.array([y])
            analytic = _sigmoid(raw) - y
            hi = logistic_loss(np.array([raw + eps]), arr_y)
            lo = logistic_loss(np.array([raw - eps]), arr_y)
            numeric = (hi - lo) / (2 * eps)
            assert analytic == pytest.approx(numeric, abs=1e-6)

    def test_single_class_returns_flagged_model(self):
        x = np.zeros((20, 3))
        y = np.zeros(20)
        model = train(x, y, Hyperparams(min_data_in_leaf=1), rng_seed=0)
        assert model.degenerate is True
        assert model.trees == ()
        probe = np.ones((5, 3))
        assert (model.predict_proba(probe) < 0.01).all()

    def test_all_positive_class(self):
        model = train(np.zeros((20, 3)), np.ones(20), Hyperparams(min_data_in_leaf=1))
        assert model.degenerate
        assert (model.predict_proba(np.zeros((2, 3))) > 0.99).all()

    def test_deterministic(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(200, 10))
        y = (x[:, 0] + x[:, 1] > 0).astype(float)
        hp = Hyperparams(
            num_leaves=15,
            min_data_in_leaf=3,
            max_rounds=20,
            feature_fraction=0.6,
            bagging_fraction=0.7,
            bagging_freq=5,
            early_stop_rounds=5,
        )
        a = train(x, y, hp, rng_seed=123)
        b = train(x, y, hp, rng_seed=123)
        assert a.base_score == b.base_score
        assert len(a.trees) == len(b.trees)
        for ta, tb in zip(a.trees, b.trees):
            np.testing.assert_array_equal(ta.feature, tb.feature)
            np.testing.assert_array_equal(ta.threshold, tb.threshold)
            np.testing.assert_array_equal(ta.value, tb.value)
        assert a.train_loss_trace == b.train_loss_trace

    def test_early_stopping_truncates(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(300, 4))
        y = (x[:, 0] > 0).astype(float)
        hp = Hyperparams(
            num_leaves=4,
            min_data_in_leaf=5,
            max_rounds=200,
            early_stop_rounds=5,
            learning_rate=0.3,
        )
        model = train(x, y, hp, rng_seed=0)
        assert len(model.trees) < 200

    def test_num_leaves_respected(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(400, 6))
        y = (np.sin(x[:, 0] * 3) > 0).astype(float)
        hp = Hyperparams(
            num_leaves=5,
            min_data_in_leaf=1,
            max_rounds=3,
            early_stop_rounds=0,
        )
        model = train(x, y, hp)
        for tree in model.trees:
            assert tree.num_leaves <= 5

    def test_min_data_in_leaf_respected(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(120, 5))
        y = (x[:, 1] > 0).astype(float)
        hp = Hyperparams(
            num_leaves=31,
            min_data_in_leaf=25,
            max_rounds=4,
            early_stop_rounds=0,
        )
        model = train(x, y, hp)
        x32 = x.astype(np.float32)
        # full-sample fit (no holdout, no bagging): routing the training
        # rows through each tree must land >= 25 rows on every leaf
        for tree in model.trees:
            nodes = np.zeros(len(x32), dtype=np.int32)
            while (tree.feature[nodes] >= 0).any():
                pend = np.flatnonzero(tree.feature[nodes] >= 0)
                cur = nodes[pend]
                goleft = x32[pend, tree.feature[cur]] <= tree.threshold[cur]
                nodes[pend] = np.where(goleft, tree.left[cur], tree.right[cur])
            counts = np.bincount(nodes, minlength=len(tree.feature))
            for leaf in np.flatnonzero(tree.feature < 0):
                assert counts[leaf] >= 25

    def test_max_depth_limits_tree(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(500, 4))
        y = ((x[:, 0] > 0) ^ (x[:, 1] > 0)).astype(float)
        hp = Hyperparams(
            num_leaves=64,
            min_data_in_leaf=1,
            max_depth=2,
            max_rounds=1,
            early_stop_rounds=0,
        )
        model = train(x, y, hp)
        tree = model.trees[0]

        def depth(node, d=0):
            if tree.feature[node] < 0:
                return d
            return max(depth(tree.left[node], d + 1), depth(tree.right[node], d + 1))

        assert depth(0) <= 2
        assert tree.num_leaves <= 4

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            train(np.zeros((4, 2)), np.zeros(5), Hyperparams(min_data_in_leaf=1))
        model = train(
            np.array([[0.0], [1.0], [2.0], [3.0]]),
            np.array([0.0, 0.0, 1.0, 1.0]),
            Hyperparams(min_data_in_leaf=1, max_rounds=1, early_stop_rounds=0),
        )
        with pytest.raises(DimensionMismatch):
            model.predict_proba(np.zeros((2, 3)))

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(100, 6))
        y = (x[:, 2] > 0).astype(float)
        hp = Hyperparams(num_leaves=7, min_data_in_leaf=2, max_rounds=6, early_stop_rounds=0)
        model = train(x, y, hp, rng_seed=1)
        model.save(tmp_path / "model.json")
        back = TrainedModel.load(tmp_path / "model.json")
        probe = rng.normal(size=(50, 6))
        np.testing.assert_array_equal(
            model.predict_proba(probe), back.predict_proba(probe)
        )
        assert back.feature_dim == 6


class TestMetrics:
    def test_f1_identity(self):
        assert f1_score(1.0, 1.0) == 1.0
        assert f1_score(0.0, 0.0) == 0.0

    def test_f1_harmonic_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p, r = rng.uniform(0.01, 1.0, 2)
            f1 = f1_score(p, r)
            assert min(p, r) - 1e-12 <= f1 <= max(p, r) + 1e-12

    def test_binary_metrics_hand_fixture(self):
        y_true = np.array([1, 1, 1, 0, 0, 0, 1, 0])
        y_pred = np.array([1, 0, 1, 0, 1, 0, 1, 0])
        m = binary_metrics(y_true, y_pred)
        assert m["precision"] == pytest.approx(3 / 4)
        assert m["recall"] == pytest.approx(3 / 4)
        assert m["accuracy"] == pytest.approx(6 / 8)
