"""The stacked central differences against the per-bump loop they replaced.

`loop_fd_gradients` is the loop `gradcheck.fd_gradients` ran before it
evaluated each tensor's bumped copies as one stack: one `rebuild_params` and
one seeded forward per bumped entry and sign. Both must give the same bits.
"""

import dataclasses

import numpy as np

from csgnn import gradcheck
from csgnn.gradcheck import FD_STEP, fd_gradients, loss_at, random_instance
from csgnn.training import params_to_tensors, rebuild_params


def loop_fd_gradients(g, params, seed):
    tensors = params_to_tensors(params)
    out = {}
    for key, base in tensors.items():
        base = np.asarray(base, dtype=float)
        grad = np.zeros_like(base)
        flat = grad.reshape(-1)
        for idx in range(base.size):
            for sign in (+1.0, -1.0):
                bumped = dict(tensors)
                arr = np.array(base)
                arr.reshape(-1)[idx] += sign * FD_STEP
                bumped[key] = arr
                p = rebuild_params(params, bumped)
                flat[idx] += sign * loss_at(g, p, seed)
        out[key] = grad / (2.0 * FD_STEP)
    return out


def _same_bits(got: dict, want: dict) -> bool:
    return got.keys() == want.keys() and all(
        got[k].shape == want[k].shape and got[k].tobytes() == want[k].tobytes() for k in want)


def test_stacked_differences_match_the_per_bump_loop():
    rng = np.random.default_rng(2024)
    seen = set()
    for _ in range(60):
        g, params, seed = random_instance(rng)
        want = loop_fd_gradients(g, params, seed)
        assert _same_bits(fd_gradients(g, params, seed), want)
        seen.add((params.dropout_p, params.share_weights, params.depth))
        if not params.share_weights:
            # nothing reads the last layer's adjacency step
            assert not want[f"layer{params.depth - 1}.k"].any()
    assert {d for d, _, _ in seen} == {0.0, 0.3}
    assert {s for _, s, _ in seen} == {False, True}
    assert {n for _, _, n in seen} == {1, 2, 3}


def test_a_negative_zero_entry_keeps_its_sign_in_the_other_copies(monkeypatch):
    monkeypatch.setattr(gradcheck, "DROPOUT_CHOICES", (0.3,))
    g, params, seed = random_instance(np.random.default_rng(5))
    encoder = np.array(params.encoder)
    encoder[0, 0] = -0.0
    params = dataclasses.replace(params, encoder=encoder,
                                 classifier_b=np.full_like(params.classifier_b, -0.0))
    base, rebuild, stacks = params_to_tensors(params), gradcheck.rebuild_params, {}

    def recording_rebuild(params, tensors):
        stacks.update((key, t) for key, t in tensors.items() if np.ndim(t) > np.ndim(base[key]))
        return rebuild(params, tensors)

    monkeypatch.setattr(gradcheck, "rebuild_params", recording_rebuild)
    assert _same_bits(fd_gradients(g, params, seed), loop_fd_gradients(g, params, seed))
    # each copy moves one entry; an untouched -0.0 stays -0.0, as in the loop's copies
    size = params.classifier_b.size
    assert np.signbit(stacks["classifier_b"][~np.tile(np.eye(size, dtype=bool), (2, 1))]).all()
    untouched = np.ones(2 * encoder.size, dtype=bool)
    untouched[[0, encoder.size]] = False
    assert np.signbit(stacks["encoder"][untouched, 0, 0]).all()


def test_each_tensor_runs_one_forward(monkeypatch):
    g, params, seed = random_instance(np.random.default_rng(9))
    forward, calls = gradcheck.forward, []

    def counting_forward(*args, **kwargs):
        calls.append(None)
        return forward(*args, **kwargs)

    monkeypatch.setattr(gradcheck, "forward", counting_forward)
    fd_gradients(g, params, seed)
    assert len(calls) == len(params_to_tensors(params))


def test_random_instances_have_the_dense_constructions_adjacency(monkeypatch):
    # random_instance built its graph from the dense (upper | upper.T) matrix
    # and now builds it from upper's edges; the oracle is the dense matrix,
    # which the dense-input Graph gave back with the same bytes
    uppers, triu = [], np.triu

    def recording_triu(m, k=0):
        uppers.append(triu(m, k))
        return uppers[-1]

    monkeypatch.setattr(gradcheck.np, "triu", recording_triu)
    for seed in range(50):
        g, _, _ = random_instance(np.random.default_rng(seed))
        upper = uppers[-1]  # drawn by the last try, the one returned
        assert g.adjacency.tobytes() == (upper | upper.T).astype(float).tobytes()
