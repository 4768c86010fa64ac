import numpy as np
import pytest

from pmdiag import model as mlp
from pmdiag.core import FaultClass
from pmdiag.model import (
    DegenerateDataError,
    DimensionMismatchError,
    EmptyClassError,
    MlpModel,
    NonFiniteInputError,
    TrainConfig,
)
from pmdiag.core import PmDiagError
from pmdiag.preprocess import FeatureVector


def uniform_model(input_dim=4):
    return MlpModel((input_dim, 5), [np.zeros((input_dim, 5))], [np.zeros(5)])


def random_batch(rng, dim, n, weights=True):
    return [
        (
            rng.normal(size=dim),
            FaultClass(int(rng.integers(0, 5))),
            float(rng.uniform(0.5, 2.5)) if weights else 1.0,
        )
        for _ in range(n)
    ]


def relu_margin(model, batch):
    """Smallest |pre-activation| over the hidden layers for a batch."""
    x = np.stack([item[0] for item in batch])
    margin = np.inf
    a = x
    for l in range(len(model.weights) - 1):
        z = a @ model.weights[l] + model.biases[l]
        margin = min(margin, float(np.abs(z).min()))
        a = np.maximum(z, 0.0)
    return margin


def safe_random_batch(rng, model, dim, n, eps=1e-5):
    """Batch whose ReLU kinks are far from every finite-difference step.

    Central differences are invalid within eps of a kink; resample until
    every hidden pre-activation has a comfortable margin.
    """
    while True:
        batch = random_batch(rng, dim, n)
        if relu_margin(model, batch) > 50 * eps:
            return batch


def finite_difference_grad(model, batch, eps=1e-5):
    """Central-difference oracle over every parameter."""
    grads_w, grads_b = [], []
    for l in range(len(model.weights)):
        for arrs, grads in ((model.weights, grads_w), (model.biases, grads_b)):
            arr = arrs[l]
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + eps
                up = mlp.loss(model, batch)
                arr[ix] = orig - eps
                down = mlp.loss(model, batch)
                arr[ix] = orig
                g[ix] = (up - down) / (2 * eps)
            grads.append(g)
    return grads_w, grads_b


def max_rel_error(analytic, fd):
    worst = 0.0
    for a, f in zip(analytic, fd):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-8)
        worst = max(worst, float((np.abs(a - f) / denom).max()))
    return worst


class TestClassWeights:
    def test_mj_counts_exact(self):
        counts = {
            FaultClass.Nominal: 356,
            FaultClass.Obstacle: 274,
            FaultClass.Friction: 355,
            FaultClass.PowerSupply: 125,
        }
        w = mlp.class_weights(counts)
        for cls, n in counts.items():
            assert w[cls] == 1110 / (4 * n)
        assert abs(w[FaultClass.PowerSupply] - 2.22) < 1e-12
        weighted_mean = sum(counts[c] * w[c] for c in counts) / 1110
        assert abs(weighted_mean - 1.0) < 1e-12

    def test_balanced(self):
        counts = {FaultClass(i): 10 for i in range(5)}
        assert all(v == 1.0 for v in mlp.class_weights(counts).values())

    def test_zero_count(self):
        with pytest.raises(EmptyClassError):
            mlp.class_weights({FaultClass.Nominal: 3, FaultClass.Obstacle: 0})

    def test_weight_vector_fills_absent(self):
        w = mlp.class_weights({FaultClass.Nominal: 2, FaultClass.Obstacle: 2})
        vec = mlp.weight_vector(w)
        assert len(vec) == 5
        assert vec[4] == 1.0


class TestInit:
    def test_parameter_count(self):
        m = mlp.init_params((128, 64, 32, 5), 0)
        assert m.parameter_count() == 10501

    def test_bounds_and_zero_biases(self):
        m = mlp.init_params((128, 64, 32, 5), 1)
        for w, dim in zip(m.weights, (128, 64, 32)):
            s = np.sqrt(6.0 / dim)
            assert np.abs(w).max() <= s
        assert all(np.all(b == 0) for b in m.biases)

    def test_deterministic(self):
        a = mlp.init_params((128, 64, 32, 5), 7)
        b = mlp.init_params((128, 64, 32, 5), 7)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))


class TestForward:
    def test_uniform(self):
        p = mlp.forward(uniform_model(), np.ones(4))
        assert np.array_equal(p, np.full(5, 0.2))

    def test_extreme_logits_stable(self):
        m = MlpModel((5, 5), [np.eye(5) * 1e4], [np.zeros(5)])
        for x in (np.array([1.0, 0, 0, 0, 0]), np.array([1.0, -1.0, 0.5, 0, 0])):
            p = mlp.forward(m, x)
            assert np.isfinite(p).all()
            assert np.all((p > 0) & (p < 1))
            assert abs(p.sum() - 1.0) < 1e-12
        p = mlp.forward(m, np.array([1.0, 0, 0, 0, 0]))
        assert p[0] > 0.999

    def test_softmax_invariants_random(self):
        rng = np.random.default_rng(3)
        m = MlpModel((5, 5), [np.eye(5)], [np.zeros(5)])
        for _ in range(200):
            logits = rng.uniform(-1e4, 1e4, size=5)
            p = mlp.forward(m, logits)
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all((p > 0) & (p < 1))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            mlp.forward(uniform_model(4), np.ones(64))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        x = np.ones(4)
        x[2] = bad
        with pytest.raises(NonFiniteInputError, match="input value 2") as info:
            mlp.forward(uniform_model(4), x)
        assert isinstance(info.value, PmDiagError)


def one_row_reference(model, x):
    """Probabilities of one feature vector, each layer a (1, fan_in) product:
    the path a one-row forward pass took before stacks of rows were scored."""
    a = x[None, :]
    last = len(model.weights) - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = np.matmul(a, w)
        z += b
        a = np.maximum(z, 0.0) if l < last else z
    e = np.exp(a - a.max(axis=-1, keepdims=True)) + mlp.PROB_FLOOR
    return (e / e.sum(axis=-1, keepdims=True))[0]


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestForwardRows:
    @staticmethod
    def awkward_rows(rng, width):
        """Zeros, negatives, and inputs large enough to saturate the softmax."""
        return np.stack([
            np.zeros(width),
            -np.abs(rng.normal(size=width)),
            rng.normal(size=width) * 1e6,
            -rng.uniform(1e5, 1e7, size=width),
        ])

    @pytest.mark.parametrize("width", [128, 64])
    @pytest.mark.parametrize("n", [1, 2, 3, 1999])
    def test_rows_equal_one_row_forward_bit_for_bit(self, n, width):
        rng = np.random.default_rng([n, width])
        mdl = mlp.init_params((width, 64, 32, 5), seed=width)
        awkward = self.awkward_rows(rng, width)
        x = rng.normal(size=(n, width)) * rng.choice([1e-3, 1.0, 1e3], size=(n, 1))
        # awkward rows first, so n = 1, 2 and 3 begin with them, then repeats
        x[: len(awkward)] = awkward[:n]
        x[len(awkward) :: 7] = x[n // 2]
        got = mlp.forward_rows(mdl, x)
        assert got.shape == (n, 5)
        ref = np.stack([one_row_reference(mdl, row) for row in x])
        assert np.array_equal(bits(got), bits(ref))
        assert np.array_equal(bits(got), bits([mlp.forward(mdl, row) for row in x]))
        if n > 2:
            assert got[2].max() > 1.0 - 1e-9  # the softmax saturated

    def test_each_awkward_row_alone(self):
        rng = np.random.default_rng(8)
        mdl = mlp.init_params((128, 64, 32, 5), seed=8)
        for row in self.awkward_rows(rng, 128):
            assert np.array_equal(bits(mlp.forward(mdl, row)), bits(one_row_reference(mdl, row)))

    def test_first_non_finite_row_named(self):
        x = np.ones((6, 4))
        x[4, 0] = np.inf
        x[2, 3] = np.nan
        x[2, 1] = -np.inf
        with pytest.raises(NonFiniteInputError, match="^input value 1 is not finite$") as info:
            mlp.forward_rows(uniform_model(4), x)
        assert info.value.row == 2

    def test_width_mismatch_names_row_0(self):
        with pytest.raises(DimensionMismatchError, match="^input length 64 != layer_dims") as info:
            mlp.forward_rows(uniform_model(4), np.ones((3, 64)))
        assert info.value.row == 0

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 4), ()])
    def test_needs_a_matrix(self, shape):
        with pytest.raises(DimensionMismatchError, match="matrix"):
            mlp.forward_rows(uniform_model(4), np.ones(shape))

    def test_no_rows(self):
        assert mlp.forward_rows(uniform_model(4), np.empty((0, 4))).shape == (0, 5)


class TestLoss:
    def test_uniform_single_item(self):
        batch = [(np.ones(4), FaultClass.Nominal, 1.0)]
        assert abs(mlp.loss(uniform_model(), batch) - 1.6094379124341003) < 1e-12

    def test_linear_in_weight(self):
        b1 = [(np.ones(4), FaultClass.Nominal, 1.0)]
        b2 = [(np.ones(4), FaultClass.Nominal, 2.22)]
        assert abs(mlp.loss(uniform_model(), b2) - 2.22 * mlp.loss(uniform_model(), b1)) < 1e-12

    def test_perfect_prediction(self):
        m = MlpModel((5, 5), [np.eye(5) * 50.0], [np.zeros(5)])
        batch = [(np.array([1.0, 0, 0, 0, 0]), FaultClass.Nominal, 1.0)]
        assert mlp.loss(m, batch) <= 1e-9

    def test_common_weight_factor_scales_exactly(self):
        rng = np.random.default_rng(5)
        m = mlp.init_params((6, 5, 5), 5)
        batch = random_batch(rng, 6, 8)
        doubled = [(x, y, 2.0 * w) for x, y, w in batch]
        assert mlp.loss(m, doubled) == 2.0 * mlp.loss(m, batch)
        g1 = mlp.grad(m, batch)
        g2 = mlp.grad(m, doubled)
        assert all(np.array_equal(a, 2.0 * b) for a, b in zip(g2.weights, g1.weights))


class TestGrad:
    def test_against_finite_differences(self):
        worst_overall = 0.0
        for trial in range(20):
            rng = np.random.default_rng(100 + trial)
            dims = (6, 5, 5) if trial % 2 == 0 else (8, 6, 4, 5)
            m = mlp.init_params(dims, trial)
            batch = safe_random_batch(rng, m, dims[0], 10)
            g = mlp.grad(m, batch)
            fw, fb = finite_difference_grad(m, batch)
            worst = max(max_rel_error(g.weights, fw), max_rel_error(g.biases, fb))
            worst_overall = max(worst_overall, worst)
        assert worst_overall < 1e-4

    def test_zero_weight_items_contribute_nothing(self):
        rng = np.random.default_rng(9)
        m = mlp.init_params((6, 5, 5), 9)
        a = (rng.normal(size=6), FaultClass.Friction, 1.0)
        z = (rng.normal(size=6), FaultClass.Obstacle, 0.0)
        g_single = mlp.grad(m, [a])
        g_mixed = mlp.grad(m, [a, z])
        # the zero-weight item only enlarges the mean's denominator
        for x, y in zip(g_mixed.weights, g_single.weights):
            assert np.allclose(x, y / 2.0, atol=1e-15)

    def test_duplicate_item_doubles_contribution(self):
        rng = np.random.default_rng(11)
        m = mlp.init_params((6, 5, 5), 11)
        a = (rng.normal(size=6), FaultClass.Nominal, 1.3)
        b = (rng.normal(size=6), FaultClass.Friction, 0.7)
        ga = mlp.grad(m, [a])
        gb = mlp.grad(m, [b])
        gab = mlp.grad(m, [a, a, b])
        for x, wa, wb in zip(gab.weights, ga.weights, gb.weights):
            assert np.allclose(x, (2 * wa + wb) / 3.0, atol=1e-12)


def feature_records(n, dim=128, seed=0):
    """Two linearly separable classes with near-orthogonal templates."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        v = np.zeros(dim)
        half = dim // 2
        v[:half] = 1.0 if i % 2 == 0 else 0.05
        v[half:] = 0.05 if i % 2 == 0 else 1.0
        v = np.abs(v + rng.normal(0, 0.01, dim))
        fv = FeatureVector(v, f"f{i}")
        records.append((fv, FaultClass(i % 2)))
    return records


def reference_grad(model, x, y, w):
    """The gradient of the batch loss in fresh per-layer arrays."""
    last = len(model.weights) - 1
    activations = [x]
    for l, (wl, b) in enumerate(zip(model.weights, model.biases)):
        z = activations[-1] @ wl + b
        if l < last:
            activations.append(np.maximum(z, 0.0))
    probs = mlp._softmax(z)
    rows = np.arange(len(y))
    eff_w = np.where(probs[rows, y] > mlp.PROB_FLOOR, w, 0.0)
    delta = probs.copy()
    delta[rows, y] -= 1.0
    delta *= (eff_w / len(y))[:, None]
    grad_w, grad_b = [None] * (last + 1), [None] * (last + 1)
    for l in range(last, -1, -1):
        grad_w[l] = activations[l].T @ delta
        grad_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ model.weights[l].T) * (activations[l] > 0.0)
    return grad_w, grad_b


def reference_train(features, cfg):
    """train as a per-layer momentum loop that logs the loss in one full-set product."""
    x = np.stack([fv.values for fv, _ in features])
    y = np.asarray([int(label) for _, label in features], dtype=np.int64)
    w = np.asarray(cfg.class_weights)[y]
    mdl = mlp.init_params(mlp.DEFAULT_LAYER_DIMS, cfg.seed)
    velocity_w = [np.zeros_like(m) for m in mdl.weights]
    velocity_b = [np.zeros_like(b) for b in mdl.biases]
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(1,)))
    n = len(y)
    epoch_losses = []
    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate * (1.0 - epoch / cfg.epochs)
        order = shuffle_rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            grad_w, grad_b = reference_grad(mdl, x[idx], y[idx], w[idx])
            for l in range(len(mdl.weights)):
                velocity_w[l] = cfg.momentum * velocity_w[l] - lr * grad_w[l]
                velocity_b[l] = cfg.momentum * velocity_b[l] - lr * grad_b[l]
                mdl.weights[l] += velocity_w[l]
                mdl.biases[l] += velocity_b[l]
        epoch_losses.append(mlp._loss_arrays(mdl, x, y, w))
    return mdl, epoch_losses


class TestTrain:
    def test_separable_sanity(self):
        records = feature_records(40)
        result = mlp.train(records, TrainConfig(seed=3))
        x = np.stack([fv.values for fv, _ in records])
        y = np.array([int(label) for _, label in records])
        codes, _ = mlp.predict_batch(result.model, x)
        assert (codes == y).all()
        tail = result.epoch_losses[-50:]
        assert all(b - a <= 1e-6 for a, b in zip(tail, tail[1:]))

    def test_deterministic(self):
        records = feature_records(24)
        r1 = mlp.train(records, TrainConfig(epochs=30, seed=2))
        r2 = mlp.train(records, TrainConfig(epochs=30, seed=2))
        assert all(np.array_equal(a, b) for a, b in zip(r1.model.weights, r2.model.weights))
        assert all(np.array_equal(a, b) for a, b in zip(r1.model.biases, r2.model.biases))
        assert r1.epoch_losses == r2.epoch_losses

    def test_epoch_loss_blocks_equal_whole_set_loss(self):
        # train logs the loss in row blocks; one product over all rows is the
        # reference, and a one-row block (numpy's gemv path) would differ
        rng = np.random.default_rng(0)
        m = mlp.init_params(seed=3)
        for n in (2, 3, 41, 887):
            x = rng.uniform(0, 3, (n, 128))
            y = rng.integers(0, 5, n)
            w = rng.uniform(0.5, 2, n)
            whole = mlp._loss_arrays(m, x, y, w)
            for block_rows in (1, 2, 7, 32, 64):
                assert mlp._blocked_loss(m, x, y, w, block_rows) == whole, (n, block_rows)

    @pytest.mark.parametrize("start", [0, 1, 7, 12])
    def test_loss_log_taken_over_from_any_epoch(self, start):
        # a loss_log that keeps each vector and logs it with logged_loss, as
        # pipeline's writer does in another process, gives train's own bits
        records = feature_records(41)
        cfg = TrainConfig(epochs=12, batch_size=7, seed=4, class_weights=(1.0, 2.0, 0.5, 1.5, 3.0))
        alone = mlp.train(records, cfg)

        class KeepVectors:
            def __init__(self):
                self.ended, self.kept = 0, []

            def take(self, params):
                self.ended += 1
                if self.ended <= start:
                    return False
                self.kept.append(params.copy())
                return True

            def losses(self, loss_of):
                logged = mlp.logged_loss(records, cfg)
                return [logged(params) for params in self.kept]

        log = KeepVectors()
        handed = mlp.train(records, cfg, loss_log=log)
        assert (log.ended, len(log.kept)) == (12, 12 - start)
        assert handed.epoch_losses == alone.epoch_losses
        assert mlp._params_obj(handed.model) == mlp._params_obj(alone.model)

    @pytest.mark.parametrize("batch_size", [1, 2, 7, 32, 41])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_equals_per_layer_reference_loop(self, seed, batch_size):
        rng = np.random.default_rng(seed)
        records = [
            (FeatureVector(rng.uniform(0, 2, 128), f"f{i}"), FaultClass(i % 5)) for i in range(41)
        ]
        cfg = TrainConfig(epochs=20, batch_size=batch_size, seed=seed,
                          class_weights=(1.0, 2.0, 0.5, 1.5, 3.0))
        result = mlp.train(records, cfg)
        ref_model, ref_losses = reference_train(records, cfg)
        for got, want in zip(result.model.weights + result.model.biases,
                             ref_model.weights + ref_model.biases):
            assert got.tobytes() == want.tobytes()
        assert result.epoch_losses == ref_losses
        arrays = result.model.weights + result.model.biases
        assert all(a.flags.owndata for a in arrays)
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[:i])

    def test_single_class_rejected(self):
        records = [(fv, FaultClass.Nominal) for fv, _ in feature_records(10)]
        with pytest.raises(DegenerateDataError):
            mlp.train(records, TrainConfig(epochs=1))

    def test_wrong_feature_length(self):
        records = feature_records(10, dim=64)
        with pytest.raises(DimensionMismatchError):
            mlp.train(records, TrainConfig(epochs=1))


class TestPredict:
    def test_argmax(self):
        assert mlp.argmax_class(np.array([0.1, 0.6, 0.1, 0.1, 0.1])) is FaultClass.Obstacle

    def test_tie_lowest_code(self):
        assert mlp.argmax_class(np.array([0.3, 0.3, 0.2, 0.1, 0.1])) is FaultClass.Nominal

    def test_predict_returns_probs(self):
        probs = mlp.forward(uniform_model(), np.ones(4))
        assert mlp.argmax_class(probs) is FaultClass.Nominal
        assert probs.shape == (5,)


class TestModelIo:
    def test_round_trip_and_digest(self, tmp_path):
        m = mlp.init_params((16, 8, 5), 4)
        path = tmp_path / "model.json"
        mlp.save_model(m, path, TrainConfig(epochs=1), provenance="test")
        back = mlp.load_model(path)
        assert back.layer_dims == m.layer_dims
        assert all(np.array_equal(a, b) for a, b in zip(back.weights, m.weights))
        assert mlp.model_digest(back) == mlp.model_digest(m)

    def test_train_config_invariants(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ValueError):
            TrainConfig(class_weights=(1.0, 1.0, 0.0, 1.0, 1.0))
