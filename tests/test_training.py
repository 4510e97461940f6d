import dataclasses

import mpmath
import numpy as np
import pytest

from csgnn import dynamics, gradcheck
from csgnn.dynamics import LayerParams, max_feature_step
from csgnn.equivariant import EquivariantCoeffs, max_step_adjacency
from csgnn.gradcheck import (analytic_gradients, fd_gradients, loss_at,
                             max_gradient_rel_error, random_instance)
from csgnn.graph import Graph
from csgnn.network import NetworkParams, evolve, forward
from csgnn.sbm import gen_sbm
from csgnn.training import (AdamState, TrainConfig, accuracy, adam_step, backward,
                            cross_entropy_logit_grad, history_to_csv, init_params,
                            masked_cross_entropy, params_to_tensors, rebuild_params,
                            select_checkpoint, train)


class TestMaskedCrossEntropy:
    def test_uniform_logits(self):
        loss = masked_cross_entropy(np.array([[0.0, 0.0]]), np.array([0]), np.array([True]))
        assert loss == pytest.approx(np.log(2.0), rel=1e-12)

    def test_extreme_logits_stable(self):
        loss = masked_cross_entropy(np.array([[1000.0, -1000.0]]), np.array([0]), np.array([True]))
        assert loss == pytest.approx(0.0, abs=1e-12)
        loss = masked_cross_entropy(np.array([[-1000.0, 1000.0]]), np.array([0]), np.array([True]))
        assert loss == pytest.approx(2000.0, rel=1e-12)

    def test_matches_extended_precision_oracle(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((6, 4)) * 5.0
        labels = rng.integers(0, 4, 6)
        mask = np.array([True, False, True, True, False, True])
        with mpmath.workdps(50):
            total = mpmath.mpf(0)
            for i in np.flatnonzero(mask):
                exps = [mpmath.e ** mpmath.mpf(x) for x in logits[i]]
                total += -mpmath.log(exps[labels[i]] / mpmath.fsum(exps))
            oracle = float(total / int(mask.sum()))
        assert masked_cross_entropy(logits, labels, mask) == pytest.approx(oracle, rel=1e-13)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="mask"):
            masked_cross_entropy(np.zeros((2, 2)), np.zeros(2, dtype=int), np.zeros(2, dtype=bool))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label"):
            masked_cross_entropy(np.zeros((1, 2)), np.array([5]), np.array([True]))

    @pytest.mark.parametrize("label", [-1, 2])
    def test_grad_rejects_label_out_of_range(self, label):
        logits = np.zeros((3, 2))
        labels = np.array([0, label, -1])  # the unmasked -1 is fine
        with pytest.raises(ValueError, match="label"):
            cross_entropy_logit_grad(logits, labels, np.array([True, True, False]))
        assert cross_entropy_logit_grad(logits, labels, np.array([True, False, False]))[0, 0] == -0.5

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((5, 3))
        labels = rng.integers(0, 3, 5)
        mask = np.array([True, True, False, True, False])
        grad = cross_entropy_logit_grad(logits, labels, mask)
        eps = 1e-7
        for i in range(5):
            for j in range(3):
                bumped = logits.copy()
                bumped[i, j] += eps
                fd = (masked_cross_entropy(bumped, labels, mask)
                      - masked_cross_entropy(logits, labels, mask)) / eps
                assert grad[i, j] == pytest.approx(fd, abs=1e-6)


class TestBackward:
    def test_zero_loss_seed_gives_zero_gradients(self):
        rng = np.random.default_rng(2)
        g, params, seed = random_instance(rng)
        logits, trace = forward(g, params, mode="train", rng=np.random.default_rng(seed))
        grads = backward(trace, g, params, np.zeros_like(logits))
        for val in grads.values():
            assert np.abs(val).max() == 0.0

    def test_seeded_loss_replays_the_sampled_masks(self, monkeypatch):
        # the gradient check draws its dropout masks from a fresh generator on
        # the instance's seed; the loss must be the one under the masks that a
        # training forward from that seed applies, bit for bit
        monkeypatch.setattr(gradcheck, "DROPOUT_CHOICES", (0.3,))
        rng = np.random.default_rng(8)
        g, params, seed = random_instance(rng)
        logits, trace = forward(g, params, mode="train", rng=np.random.default_rng(seed))
        assert all(np.any(m == 0.0) for m in (*trace.layer_masks, trace.final_mask))
        f = trace.input_dropped @ params.encoder
        for layer, a, mask in zip(params.layers, trace.adjacency_states, trace.layer_masks):
            f = dynamics.feature_step(f * mask, a, layer.feature)
        replayed = (f * trace.final_mask) @ params.classifier_w + params.classifier_b
        assert np.array_equal(replayed, logits)
        assert loss_at(g, params, seed) == masked_cross_entropy(logits, g.labels, g.train_mask)
        expected = backward(trace, g, params,
                            cross_entropy_logit_grad(logits, g.labels, g.train_mask))
        got = analytic_gradients(g, params, seed)
        assert all(np.array_equal(got[key], expected[key]) for key in expected)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(6):
            assert max_gradient_rel_error(rng) <= 1e-5

    def test_frozen_adjacency_matches_feature_only_oracle(self, monkeypatch):
        # with k = 0 and alpha = 0 the adjacency never moves; gradients of the
        # feature-side tensors must match finite differences of a forward that
        # skips the adjacency system entirely
        monkeypatch.setattr(gradcheck, "DROPOUT_CHOICES", (0.0,))
        rng = np.random.default_rng(4)
        g, params, seed = random_instance(rng)
        frozen = []
        for layer in params.layers:
            adj = dataclasses.replace(layer.adjacency,
                                      coeffs=EquivariantCoeffs(k=np.zeros(8), alpha=0.0),
                                      h=0.5)
            frozen.append(dataclasses.replace(layer, adjacency=adj))
        if params.share_weights:
            frozen = [frozen[0]] * len(frozen)
        params = dataclasses.replace(params, layers=tuple(frozen))
        grads = analytic_gradients(g, params, seed)

        from csgnn.dynamics import feature_step
        from csgnn.training import masked_cross_entropy as ce

        def bypass_loss(tensors):
            p = rebuild_params(params, tensors)
            f = g.features @ p.encoder
            for layer in p.layers:
                f = feature_step(f, g.adjacency, layer.feature)
            logits = f @ p.classifier_w + p.classifier_b
            return ce(logits, g.labels, g.train_mask)

        tensors = params_to_tensors(params)
        eps = 1e-6
        for key, base in tensors.items():
            if key.endswith(".k"):
                continue
            arr = np.asarray(base, dtype=float)
            idx = np.unravel_index(rng.integers(0, arr.size), arr.shape)
            plus, minus = arr.copy(), arr.copy()
            plus[idx] += eps
            minus[idx] -= eps
            fd = (bypass_loss({**tensors, key: plus})
                  - bypass_loss({**tensors, key: minus})) / (2 * eps)
            assert grads[key][idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_asymmetric_input_adjacency_rejected(self, monkeypatch):
        # the graph cannot be built, so no trace of it reaches `backward`
        monkeypatch.setattr(gradcheck, "DROPOUT_CHOICES", (0.0,))
        g, _, _ = random_instance(np.random.default_rng(7))
        a = g.adjacency.copy()
        a[0, 1] += 0.5
        with pytest.raises(ValueError, match="symmetric"):
            dataclasses.replace(g, adjacency=a)

    @staticmethod
    def small_instance(share_weights):
        rng = np.random.default_rng(5)
        cfg = TrainConfig(hidden_dim=3, num_layers=3, share_weights=share_weights, h=0.2,
                          alpha=-1.0, dropout_p=0.2)
        params = init_params(2, 2, 5, cfg, rng)
        g = Graph(adjacency=(np.fromfunction(lambda i, j: (i + j) % 2, (5, 5))),
                  features=rng.standard_normal((5, 2)),
                  labels=rng.integers(0, 2, 5), train_mask=np.ones(5, dtype=bool))
        return g, params

    @staticmethod
    def gradients(g, params):
        logits, trace = forward(g, params, mode="train", rng=np.random.default_rng(0))
        return backward(trace, g, params,
                        cross_entropy_logit_grad(logits, g.labels, g.train_mask))

    @pytest.mark.parametrize("share_weights", [False, True])
    def test_keys_are_the_trainable_tensors(self, share_weights):
        g, params = self.small_instance(share_weights)
        assert set(self.gradients(g, params)) == set(params_to_tensors(params))

    def test_shared_weights_gradients_aggregate(self):
        # the shared slot sums the gradients of the same layers run unshared,
        # in ascending layer order, to the bit
        g, shared = self.small_instance(True)
        per_layer = self.gradients(g, dataclasses.replace(shared, share_weights=False))
        collapsed = self.gradients(g, shared)
        for name in ("K", "k"):
            expected = (0.0 + per_layer[f"layer0.{name}"] + per_layer[f"layer1.{name}"]
                        + per_layer[f"layer2.{name}"])
            assert np.array_equal(collapsed[f"layer0.{name}"], expected)
        for key in ("encoder", "classifier_w", "classifier_b"):
            assert np.array_equal(collapsed[key], per_layer[key])


class TestAdam:
    def test_first_step_is_signed_lr(self):
        tensors = {"encoder": np.array([[1.0, -2.0]])}
        grads = {"encoder": np.array([[0.5, -3.0]])}
        state = AdamState.init(tensors)
        cfg = TrainConfig(lr_embed=0.01, wd_embed=0.0)
        out, _ = adam_step(tensors, grads, state, cfg)
        delta = out["encoder"] - tensors["encoder"]
        assert np.abs(delta - (-0.01 * np.sign(grads["encoder"]))).max() <= 1e-6

    def test_zero_gradient_keeps_parameters(self):
        tensors = {"layer0.K": np.array([[0.3]])}
        grads = {"layer0.K": np.zeros((1, 1))}
        cfg = TrainConfig(wd_node=0.0)
        out, _ = adam_step(tensors, grads, AdamState.init(tensors), cfg)
        assert np.array_equal(out["layer0.K"], tensors["layer0.K"])

    def test_alpha_stays_nonpositive_and_h_clamped(self):
        rng = np.random.default_rng(6)
        cfg = TrainConfig(hidden_dim=3, num_layers=2, h=0.9, alpha=0.0)
        params = init_params(2, 2, 4, cfg, rng)
        tensors = params_to_tensors(params)
        tensors = {k: (v + 10.0 if k.endswith(".k") else v) for k, v in tensors.items()}
        rebuilt = rebuild_params(params, tensors, cfg)
        for layer in rebuilt.layers:
            assert layer.adjacency.coeffs.alpha <= 0.0
            assert layer.adjacency.h <= max_step_adjacency(layer.adjacency.coeffs) * (1 + 1e-12)

    def test_positive_alpha_rejected_at_type_level(self):
        with pytest.raises(ValueError):
            EquivariantCoeffs(k=np.zeros(8), alpha=0.1)


class TestSelectCheckpoint:
    @staticmethod
    def _run(accs, patience):
        # checkpoint e + 1 is the one epoch e trains; its accuracy is accs[e]
        seen = []

        def step(epoch, current):
            seen.append(epoch)
            return epoch + 1, accs[epoch]

        return select_checkpoint(0, len(accs), patience, step), seen

    def test_tie_takes_the_later_checkpoint(self):
        best, _ = self._run([0.5, 0.7, 0.7, 0.6], patience=10)
        assert best == 3

    def test_patience_counts_epochs_without_strict_improvement(self):
        # the ties at epochs 1 and 3 move the checkpoint but do not reset patience
        best, seen = self._run([0.7, 0.7, 0.6, 0.7, 0.9], patience=3)
        assert seen == [0, 1, 2, 3]
        assert best == 4

    def test_strict_improvement_resets_patience(self):
        best, seen = self._run([0.5, 0.4, 0.6, 0.4, 0.4, 0.9], patience=2)
        assert seen == [0, 1, 2, 3, 4]
        assert best == 3

    def test_stop_before_any_epoch_keeps_the_initial_checkpoint(self):
        assert select_checkpoint("init", 5, 2, lambda epoch, current: None) == "init"


def _dense_h_safe(a, feature):
    # h_safe of `max_feature_step`, with lam_max(L(A o A + (A o A)^T)) from eigvalsh
    b = a * a
    b = b + b.T
    lap = np.diag(b.sum(axis=1)) - b
    s2 = max(float(np.linalg.eigvalsh(lap).max()), 0.0)
    eigs = np.linalg.eigvalsh(0.5 * (feature.K + feature.K.T))
    lam = (eigs.max() ** 2 / eigs.min() if eigs.min() > 0 else np.abs(eigs).max()) * s2
    return 1.0 / (lam + 1e-12)


class TestTrainConfigValidation:
    @pytest.mark.parametrize("field,value", [
        ("h", 0.0), ("h", -0.5), ("h", np.nan), ("h", np.inf),
        ("epochs", -3),
        ("hidden_dim", 0), ("num_layers", 0), ("patience", 0),
        ("lr_embed", np.nan), ("lr_node", -1e-3), ("lr_adj", np.inf),
        ("wd_embed", -1.0), ("wd_node", np.nan), ("wd_adj", np.inf),
        ("dropout_p", 1.0), ("dropout_p", -0.1), ("dropout_p", np.nan),
    ])
    def test_rejects_out_of_range_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e-3])
    def test_rejects_non_finite_or_positive_alpha(self, value):
        with pytest.raises(ValueError, match="alpha"):
            TrainConfig(alpha=value)

    @pytest.mark.parametrize("value", [0.0, -0.1, 1.5, np.nan, np.inf])
    def test_rejects_leaky_slope_outside_unit_interval(self, value):
        with pytest.raises(ValueError, match="leaky_slope"):
            TrainConfig(leaky_slope=value)

    def test_alpha_and_slope_boundaries_accepted(self):
        TrainConfig(alpha=0.0, leaky_slope=1.0)
        TrainConfig(alpha=-1e300, leaky_slope=1e-300)

    def test_boundary_values_accepted(self):
        TrainConfig(epochs=0, hidden_dim=1, num_layers=1, patience=1, dropout_p=0.0,
                    lr_embed=0.0, lr_node=0.0, lr_adj=0.0, wd_embed=0.0, wd_node=0.0,
                    wd_adj=0.0, h=1e-9)


class TestTrain:
    def _graph(self):
        return gen_sbm(n=40, classes=2, p_in=0.4, p_out=0.05, feat_dim=4,
                       signal=1.5, seed=1)

    def test_zero_epochs_returns_initial_params(self):
        g = self._graph()
        cfg = TrainConfig(epochs=0, seed=3, hidden_dim=4, num_layers=2)
        params, history = train(g, cfg)
        rng = np.random.default_rng(3)
        fresh = init_params(g.feat_dim, 2, g.n, cfg, rng)
        assert history == []
        assert np.array_equal(params.encoder, fresh.encoder)

    def test_seeded_determinism(self):
        g = self._graph()
        cfg = TrainConfig(epochs=12, seed=5, hidden_dim=4, num_layers=2, dropout_p=0.3)
        p1, h1 = train(g, cfg)
        p2, h2 = train(g, cfg)
        assert h1 == h2
        assert np.array_equal(p1.encoder, p2.encoder)
        assert np.array_equal(p1.layers[0].feature.K, p2.layers[0].feature.K)

    def test_loss_decreases_on_average(self):
        g = self._graph()
        cfg = TrainConfig(epochs=20, seed=0, hidden_dim=8, num_layers=2)
        _, history = train(g, cfg)
        losses = [r.train_loss for r in history]
        assert np.mean(losses[:5]) > np.mean(losses[-5:])

    def test_contractive_bounds_hold_after_training(self):
        g = self._graph()
        cfg = TrainConfig(epochs=15, seed=2, hidden_dim=4, num_layers=2)
        params, _ = train(g, cfg)
        _, adjacency_states = evolve(g.features @ params.encoder, g.adjacency, params.layers)
        for layer, a in zip(params.layers, adjacency_states):
            assert layer.adjacency.coeffs.alpha <= 0.0
            assert layer.adjacency.h <= max_step_adjacency(layer.adjacency.coeffs) * (1 + 1e-12)
            assert layer.feature.h <= max_feature_step(a, layer.feature) * (1 + 1e-12)

    def test_step_bounds_hold_on_the_lanczos_path(self):
        g = gen_sbm(n=300, classes=2, p_in=0.1, p_out=0.02, feat_dim=4, signal=1.3, seed=0)
        assert g.n >= dynamics._LANCZOS_MIN_N
        cfg = TrainConfig(epochs=3, seed=0, hidden_dim=4, num_layers=2, h=10.0)
        params, _ = train(g, cfg)
        _, adjacency_states = evolve(g.features @ params.encoder, g.adjacency, params.layers)
        for layer, a in zip(params.layers, adjacency_states):
            oracle = _dense_h_safe(a, layer.feature)
            assert oracle * (1 - 1e-9) <= layer.feature.h <= oracle * (1 + 1e-12)

    def test_history_csv_format(self):
        g = self._graph()
        _, history = train(g, TrainConfig(epochs=3, seed=0, hidden_dim=4, num_layers=2))
        text = history_to_csv(history)
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,train_loss,val_acc,test_acc"
        assert len(lines) == 4
