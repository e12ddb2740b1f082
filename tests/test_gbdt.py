"""Trainer tests: closed-form oracles, loss monotonicity, determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from advforge import gbdt
from advforge.gbdt import (
    DegenerateData,
    DimensionMismatch,
    Hyperparams,
    TrainedModel,
    Tree,
    binary_metrics,
    f1_score,
    logistic_loss,
    train,
)


def _sigmoid(v):
    return 1.0 / (1.0 + math.exp(-v))


def loop_leaves(tree, x):
    """Oracle: the node each row of float32 ``x`` reaches, one tree at a
    time, moving only the rows still at an internal node."""
    nodes = np.zeros(x.shape[0], dtype=np.int32)
    while True:
        pending = np.flatnonzero(tree.feature[nodes] >= 0)
        if pending.size == 0:
            return nodes
        cur = nodes[pending]
        goes_left = x[pending, tree.feature[cur]] <= tree.threshold[cur]
        nodes[pending] = np.where(goes_left, tree.left[cur], tree.right[cur])


def loop_predict_raw(model, x):
    """Oracle: the per-tree loop, ``base`` then ``+= lr * value`` in turn."""
    x = np.asarray(x, dtype=np.float32).reshape(-1, model.feature_dim)
    raw = np.full(x.shape[0], model.base_score)
    for tree in model.trees:
        raw += model.learning_rate * tree.value[loop_leaves(tree, x)]
    return raw


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
            nodes = loop_leaves(tree, x32)
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


INPUT_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
    st.floats(width=32),
)


@st.composite
def trees(draw, dim, cuts):
    """A valid tree of depth at most 8 in pre-order; a node splits on a
    cut that is often one of the input values, so ``<=`` ties occur."""
    feature, threshold, left, right, value = [], [], [], [], []

    def grow(depth):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(draw(st.floats(-1e3, 1e3)))
        if depth < 8 and draw(st.booleans()):
            feature[node] = draw(st.integers(0, dim - 1))
            threshold[node] = draw(st.one_of(st.sampled_from(cuts),
                                              st.floats(-1e6, 1e6)))
            left[node] = grow(depth + 1)
            right[node] = grow(depth + 1)
        return node

    grow(0)
    return Tree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value, dtype=np.float64),
    )


@st.composite
def models_and_inputs(draw):
    dim = draw(st.integers(1, 5))
    x = draw(arrays(np.float32, (draw(st.integers(1, 9)), dim),
                    elements=INPUT_VALUES))
    cuts = [float(v) for v in x.ravel()]
    model = TrainedModel(
        trees=tuple(draw(st.lists(trees(dim, cuts), max_size=12))),
        base_score=draw(st.floats(-10.0, 10.0)),
        learning_rate=draw(st.floats(1e-3, 1.0)),
        feature_dim=dim,
    )
    return model, x


class TestPackedWalk:
    """The packed walk over every (row, tree) pair against the per-tree
    loop: equal bit for bit, since the sum keeps the loop's order."""

    @settings(max_examples=300, deadline=None)
    @given(models_and_inputs())
    def test_matches_per_tree_loop(self, case):
        model, x = case
        want = loop_predict_raw(model, x)
        assert np.array_equal(model.predict_raw(x), want)
        assert np.array_equal(model.predict_proba(x), gbdt._sigmoid(want))
        assert np.array_equal(model.predict_raw(x[0]), want[:1])
        with pytest.raises(DimensionMismatch):
            model.predict_raw(np.zeros((1, model.feature_dim + 1)))

    def test_blocks_of_rows_match_the_loop(self, monkeypatch):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(300, 6))
        y = (x[:, 0] * x[:, 1] > 0).astype(float)
        hp = Hyperparams(num_leaves=15, min_data_in_leaf=3, max_rounds=40,
                         feature_fraction=0.7, bagging_fraction=0.8)
        model = train(x, y, hp, rng_seed=2)
        probe = rng.normal(size=(97, 6))
        probe[::5, 2] = np.nan
        want = loop_predict_raw(model, probe)
        # scratch memory is bounded by walking rows in blocks
        monkeypatch.setattr(gbdt, "_BLOCK_PAIRS", 3 * len(model.trees))
        assert np.array_equal(model.predict_raw(probe), want)
        monkeypatch.undo()
        assert np.array_equal(model.predict_raw(probe), want)

    def test_cyclic_tree_raises(self):
        # node 1 sends every row back to node 0, as no trained tree does
        tree = Tree(feature=np.array([0, 0, -1], dtype=np.int32),
                    threshold=np.array([1.0, 2.0, 0.0]),
                    left=np.array([1, 0, -1], dtype=np.int32),
                    right=np.array([2, 2, -1], dtype=np.int32),
                    value=np.zeros(3))
        model = TrainedModel(trees=(tree,), base_score=0.0,
                             learning_rate=1.0, feature_dim=1)
        assert model.predict_raw(np.array([5.0]))[0] == 0.0
        with pytest.raises(gbdt.GbdtError, match="cycle"):
            model.predict_raw(np.array([0.5]))

    def test_pack_stays_out_of_equality_repr_and_file(self, tmp_path):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        hp = Hyperparams(min_data_in_leaf=1, max_rounds=2,
                         early_stop_rounds=0)
        model = train(x, y, hp)
        model.save(tmp_path / "before.json")
        text = repr(model)
        model.predict_raw(x)
        model.save(tmp_path / "after.json")
        assert repr(model) == text
        assert (tmp_path / "before.json").read_bytes() == (
            tmp_path / "after.json").read_bytes()
        degenerate = train(x, np.ones(4), hp)
        degenerate.predict_raw(x)
        assert degenerate == train(x, np.ones(4), hp)


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
