"""Trainer tests: closed-form oracles, loss monotonicity, determinism."""

import json
import math
import tracemalloc
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import gbdt_oracle
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

    @pytest.mark.parametrize("edit", [
        "child-past-its-tree", "child-before-its-tree", "extra-value",
        "short-threshold", "feature-past-dim",
    ])
    def test_load_rejects_trees_that_do_not_fit(self, tmp_path, edit):
        """A bad node array must fail at load, naming the file, not walk
        into another tree or shift later trees' values."""
        rng = np.random.default_rng(5)
        x = rng.normal(size=(60, 4))
        y = (x[:, 1] > 0).astype(float)
        hp = Hyperparams(num_leaves=4, min_data_in_leaf=2, max_rounds=5,
                         early_stop_rounds=0)
        path = tmp_path / "model.json"
        train(x, y, hp, rng_seed=2).save(path)
        blob = json.loads(path.read_text())
        tree = blob["trees"][1]
        node = tree["feature"].index(max(tree["feature"]))  # an internal node
        if edit == "child-past-its-tree":
            tree["right"][node] = len(tree["feature"])
        elif edit == "child-before-its-tree":
            tree["left"][node] = -1
        elif edit == "extra-value":
            tree["value"].append(0.0)
        elif edit == "short-threshold":
            tree["threshold"].pop()
        else:
            tree["feature"][node] = blob["feature_dim"]
        path.write_text(json.dumps(blob))
        with pytest.raises(gbdt.GbdtError, match=f"bad model file {path}"):
            TrainedModel.load(path)


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


def oracle_partition(order, member, left_size, with_right=True):
    # the frozen partition always fills both halves
    return gbdt_oracle._partition_order(order, member, left_size)


def oracle_scan(x, order, feats, tied, gh, min_data, lam):
    # the frozen scan gathers every column's values and takes g and h apart
    return gbdt_oracle._scan_best(x, order, feats, gh.real, gh.imag,
                                  min_data, lam)


def oracle_train(x, y, hp, rng_seed):
    """``train`` with the frozen presort, scan and partition swapped in."""
    with mock.patch.object(gbdt, "_presort", gbdt_oracle.presort), \
            mock.patch.object(gbdt, "_scan_best", oracle_scan), \
            mock.patch.object(gbdt, "_partition_order", oracle_partition):
        return train(x, y, hp, rng_seed=rng_seed)


def assert_same_trees(a, b):
    assert a.base_score == b.base_score
    assert a.train_loss_trace == b.train_loss_trace
    assert len(a.trees) == len(b.trees)
    for ta, tb in zip(a.trees, b.trees):
        for f in fields(Tree):
            va, vb = getattr(ta, f.name), getattr(tb, f.name)
            assert va.dtype == vb.dtype and va.tobytes() == vb.tobytes()


def tied_data(seed, rows, cols, levels):
    """Integer-valued columns with ``levels`` values each, so sorted columns
    hold long runs of ties; labels follow two columns plus noise."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, levels, size=(rows, cols)).astype(np.float32)
    y = (x[:, 0] + x[:, -1] + rng.integers(0, levels, size=rows)
         > 1.5 * (levels - 1)).astype(float)
    y[:2] = (0.0, 1.0)
    return x, y


@st.composite
def blocked_cases(draw):
    rows = draw(st.integers(20, 160))
    cols = draw(st.integers(1, 24))
    # a root of rows x cols straddles blocks of about `width` columns
    width = draw(st.integers(1, cols + 1))
    budget = rows * width + draw(st.integers(-rows // 2, rows // 2))
    x, y = tied_data(draw(st.integers(0, 2**32 - 1)), rows, cols,
                     draw(st.integers(2, 9)))
    if draw(st.booleans()):
        x += np.random.default_rng(rows).normal(size=x.shape).astype(
            np.float32)
    hp = Hyperparams(
        learning_rate=0.3,
        num_leaves=draw(st.integers(2, 8)),
        max_depth=draw(st.sampled_from([-1, 2, 3])),
        min_data_in_leaf=draw(st.integers(1, rows // 4)),
        feature_fraction=draw(st.sampled_from([1.0, 0.6])),
        bagging_fraction=draw(st.sampled_from([1.0, 0.7])),
        bagging_freq=draw(st.integers(1, 3)),
        l2_lambda=draw(st.sampled_from([0.0, 1.0])),
        max_rounds=draw(st.integers(1, 5)),
        early_stop_rounds=draw(st.sampled_from([0, 2])),
    )
    return x, y, hp, max(1, budget)


class TestComplexPrefixSum:
    """The split scan's one complex64 prefix sum of g and h against two
    float32 ones."""

    @staticmethod
    def check(g, h):
        gh = np.empty(g.shape, dtype=np.complex64)
        gh.real = g
        gh.imag = h
        np.cumsum(gh, axis=0, out=gh)
        for part, want in ((gh.real, np.cumsum(g, axis=0)),
                           (gh.imag, np.cumsum(h, axis=0))):
            assert part.tobytes() == np.ascontiguousarray(want).tobytes()
        return gh

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 5), st.data())
    def test_parts_equal_float32_cumsums(self, rows, cols, data):
        # bounded so that no 40-row sum overflows
        parts = st.floats(-2.0**120, 2.0**120, width=32, allow_subnormal=True)
        self.check(*(data.draw(arrays(np.float32, (rows, cols),
                                      elements=parts)) for _ in range(2)))

    def test_signed_zeros_and_subnormals(self):
        tiny = np.float32(1e-45)  # the smallest subnormal
        g = np.array([[-0.0], [0.0], [-0.0], [tiny], [-tiny], [-tiny]],
                     dtype=np.float32)
        gh = self.check(g, g[::-1].copy())
        assert np.signbit(gh.real[0, 0]) and np.signbit(gh.real[-1, 0])


class TestBlockedSearch:
    """The split search in column blocks against the frozen whole-node
    search: identical trees, node array by node array."""

    @settings(max_examples=60, deadline=None)
    @given(blocked_cases())
    def test_trees_match_the_oracle(self, case):
        x, y, hp, budget = case
        want = oracle_train(x, y, hp, rng_seed=3)
        with mock.patch.object(gbdt, "_BLOCK_ELEMS", budget):
            assert_same_trees(train(x, y, hp, rng_seed=3), want)

    @pytest.mark.parametrize("rows,cols,blocks", [
        (400, 81, 1), (400, 82, 2), (59, 552, 1), (64, 552, 2),
        (500, 552, 9)])
    def test_module_budget_straddled(self, rows, cols, blocks):
        # the root's block count at the module's budget; 64 x 552 is the
        # size of a campaign surrogate's training set
        assert len(gbdt._column_blocks(rows, cols)) == blocks
        x, y = tied_data(rows + cols, rows, cols, 4)
        for hp in (Hyperparams(num_leaves=8, min_data_in_leaf=5,
                               max_rounds=4, early_stop_rounds=0),
                   Hyperparams(num_leaves=6, min_data_in_leaf=3,
                               feature_fraction=0.5, bagging_fraction=0.7,
                               bagging_freq=1, max_rounds=4,
                               early_stop_rounds=2)):
            assert_same_trees(train(x, y, hp, rng_seed=1),
                              oracle_train(x, y, hp, rng_seed=1))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3000), st.integers(1, 600), st.integers(1, 40_000))
    def test_column_blocks_equal_and_bounded(self, rows, cols, budget):
        with mock.patch.object(gbdt, "_BLOCK_ELEMS", budget):
            blocks = gbdt._column_blocks(rows, cols)
        widths = [b.stop - b.start for b in blocks]
        assert blocks[0].start == 0 and blocks[-1].stop == cols
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        # no narrow tail block, and none over the budget but a lone column
        assert max(widths) - min(widths) <= 1 and min(widths) >= 1
        assert max(widths) * rows <= budget or max(widths) == 1
        # one block fewer would not hold the budget
        if len(blocks) > 1:
            assert -(-cols // (len(blocks) - 1)) * rows > budget

    @staticmethod
    def scan(x, g, h, budget, min_data=1):
        order = np.argsort(x, axis=0, kind="stable").astype(np.int32)
        feats = np.arange(x.shape[1])
        gh = (g + 1j * h).astype(np.complex64)
        with mock.patch.object(gbdt, "_BLOCK_ELEMS", budget):
            tied = gbdt._tied_columns(x, order)
            got = gbdt._scan_best(x, order, feats, tied, gh, min_data, 0.0)
        assert got == gbdt_oracle._scan_best(x, order, feats, g, h,
                                             min_data, 0.0)
        return got

    def test_equal_gains_in_two_blocks(self):
        # b = -a sorts the rows in reverse, so b reaches a's best gain
        # with the sides swapped, after k - 2 - p rows instead of p; at a
        # budget of k each column is a block of its own
        k = 8
        a = np.arange(k, dtype=np.float32)
        g = np.array([-3, -2, 1, 1, 1, 1, 0, 1], dtype=np.float32)
        h = np.full(k, 0.25, dtype=np.float32)
        gain_a, _, pos_a, _ = self.scan(a[:, None], g, h, k)
        gain_b, _, pos_b, _ = self.scan(-a[:, None], g, h, k)
        assert gain_a == gain_b > 0 and pos_a < pos_b
        # the smaller position wins, though it sits in the later block
        assert self.scan(np.stack([-a, a], axis=1), g, h, k)[1:3] == (1, pos_a)
        # at one position the earlier block wins
        assert self.scan(np.stack([a, a], axis=1), g, h, k)[1:3] == (0, pos_a)

    def test_nan_gain_in_a_later_block_means_no_split(self):
        # rows 6 and 7 carry no hessian: column 1 puts them alone on the
        # right after 6 rows, a 0/0 gain; column 0 never isolates them
        g = np.array([-3, -2, 1, 1, 1, 1, 0, 0], dtype=np.float32)
        h = np.array([0.25] * 6 + [0.0] * 2, dtype=np.float32)
        rank0 = np.array([0, 1, 2, 4, 5, 7, 3, 6], dtype=np.float32)
        x = np.stack([rank0, np.arange(8, dtype=np.float32)], axis=1)
        assert self.scan(x[:, :1], g, h, 8)[0] > 0
        with np.errstate(invalid="ignore", divide="ignore"):
            assert self.scan(x, g, h, 8) == (-math.inf, -1, -1, 0.0)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_tied_and_untied_columns_match_the_oracle(self, data):
        # each column is distinct values, a few levels with runs of ties,
        # or a constant; some hold both 0.0 and -0.0
        rows = data.draw(st.integers(2, 60))
        cols = data.draw(st.integers(1, 12))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = np.empty((rows, cols), dtype=np.float32)
        for c in range(cols):
            kind = data.draw(st.sampled_from(
                ["distinct", "levels", "constant", "signed zeros"]))
            if kind == "distinct":
                x[:, c] = rng.permutation(rows) - rows // 2
            elif kind == "levels":
                x[:, c] = rng.integers(0, data.draw(st.integers(1, 4)), rows)
            elif kind == "constant":
                x[:, c] = 1.5
            else:
                x[:, c] = rng.choice([-1.0, -0.0, 0.0, 1.0], rows)
        g = rng.normal(size=rows).astype(np.float32)
        h = rng.uniform(0.05, 0.25, rows).astype(np.float32)
        budget = rows * data.draw(st.integers(1, cols))
        min_data = data.draw(st.integers(1, max(1, rows // 2)))
        self.scan(x, g, h, budget, min_data)

    def test_tied_columns(self):
        x = np.array([[0.0, 3.0, 1.0, -0.0, np.nan],
                      [1.0, 2.0, 1.0, 0.0, np.nan],
                      [2.0, 1.0, 1.0, 2.0, 5.0]], dtype=np.float32)
        order = np.argsort(x, axis=0).astype(np.int32)
        for budget in (3, 6, 15):
            with mock.patch.object(gbdt, "_BLOCK_ELEMS", budget):
                # 0.0 == -0.0; NaN equals nothing, as validity reads it
                assert gbdt._tied_columns(x, order).tolist() == [
                    False, False, True, True, False]

    def test_all_tied_block_with_no_valid_boundary_is_skipped(self):
        # at a budget of k each column is a block: column 0 is constant,
        # column 1 holds only 0.0 and -0.0, column 2 is distinct
        k = 8
        g = np.array([-3, -2, 1, 1, 1, 1, 0, 1], dtype=np.float32)
        h = np.full(k, 0.25, dtype=np.float32)
        zeros = np.array([0.0, -0.0] * 4, dtype=np.float32)
        x = np.stack([np.full(k, 2.0, dtype=np.float32), zeros,
                      np.arange(k, dtype=np.float32)], axis=1)
        order = np.argsort(x, axis=0).astype(np.int32)
        gh = (g + 1j * h).astype(np.complex64)
        tied = gbdt._tied_columns(x, order)
        assert tied.tolist() == [True, True, False]
        lam32 = np.float32(0.0)
        for c in (0, 1):
            assert gbdt._scan_block(x, order[:, c:c + 1], np.array([c]),
                                    tied[c:c + 1], gh, 1, k, lam32) is None
        assert gbdt._scan_block(x, order[:, :2], np.arange(2), tied[:2],
                                gh, 1, k, lam32) is None
        assert self.scan(x[:, :2], g, h, k) == (-math.inf, -1, -1, 0.0)
        gain, col, _, _ = self.scan(x, g, h, k)
        assert gain > 0 and col == 2
        # the whole node in one block: the tied columns are masked
        assert self.scan(x, g, h, 3 * k)[:2] == (gain, 2)

    def test_grid_train_scratch_memory(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(500, 552)).astype(np.float32)
        y = (x[:, 0] + x[:, 1] + rng.normal(size=500) > 0).astype(float)
        hp = Hyperparams(learning_rate=0.3, num_leaves=6, min_data_in_leaf=50,
                         max_rounds=15, early_stop_rounds=0)
        train(x[:120, :4], y[:120], hp)  # keeps first-call imports out
        tracemalloc.start()
        try:
            train(x, y, hp, rng_seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 3.4 MB: the presort and the nodes' row orders, 1.1 MB
        # each, plus blocks of 128 KiB; a whole-node search took 7.9 MB
        assert peak < 4_000_000

    @pytest.mark.parametrize("sampling,roots", [
        ({}, 1),
        ({"bagging_fraction": 0.7, "bagging_freq": 3}, 3),
        ({"feature_fraction": 0.5}, 8)])
    def test_root_order_derived_once_per_bag(self, sampling, roots):
        # the hold-out keeps the bag below n, so the root is a partition
        # of the presort; it changes only with the bag or the features
        x, y = tied_data(5, 200, 12, 4)
        hp = Hyperparams(num_leaves=4, min_data_in_leaf=5, max_rounds=8,
                         early_stop_rounds=50, **sampling)
        root_calls = []
        partition = gbdt._partition_order

        def spy(order, member, left_size, with_right=True):
            if not with_right:
                root_calls.append(left_size)
            return partition(order, member, left_size, with_right)

        with mock.patch.object(gbdt, "_partition_order", spy):
            model = train(x, y, hp, rng_seed=2)
        assert len(model.train_loss_trace) == 8
        assert len(root_calls) == roots


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
