"""tracemalloc peaks at n=300, in units of one n x n float64 array, of the
phases that hold adjacency-sized arrays: one training epoch, the SBM
generator, the graph loader and the Lanczos step bound. Each phase runs once
before it is measured, so one-time allocations (lazy imports, caches) are not
counted."""

import tracemalloc

import numpy as np

from csgnn import dynamics
from csgnn.graph import load_graph, save_graph
from csgnn.sbm import gen_sbm
from csgnn.training import TrainConfig, train

N = 300


def peak_in_adjacency_arrays(fn) -> float:
    fn()
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - entry) / (8 * N * N)
    finally:
        tracemalloc.stop()


def readme_like_graph():
    return gen_sbm(N, classes=2, p_in=20 / N, p_out=5 / N, feat_dim=16, signal=1.3, seed=0)


def test_a_training_epoch_holds_about_two_adjacency_sized_arrays():
    # the cotangent on A_1 and M(A_0) in layer 0's adjacency pullback, plus
    # 64-row blocks and (n, c) arrays; the trace kept every A_l until backward
    # returned, and the epoch read 4.28
    g = readme_like_graph()
    peak = peak_in_adjacency_arrays(lambda: train(g, TrainConfig(seed=0, epochs=1)))
    assert peak <= 2.75, peak


def test_gen_sbm_holds_about_one_adjacency_sized_array():
    # the adjacency, which Graph keeps as it is, plus one block of rows of
    # the draw; Graph's read-only copy read 2.50, the one-shot n x n draw 3.58
    peak = peak_in_adjacency_arrays(readme_like_graph)
    assert peak <= 1.4, peak


def test_load_graph_holds_about_one_adjacency_sized_array(tmp_path):
    # the adjacency, which Graph keeps as it is, plus the symmetry check's
    # boolean matrix; Graph's read-only copy read 2.38
    save_graph(readme_like_graph(), tmp_path)
    peak = peak_in_adjacency_arrays(lambda: load_graph(tmp_path))
    assert peak <= 1.4, peak


def test_the_lanczos_step_bound_holds_about_one_adjacency_sized_array():
    # the edge weights 2 A o A, plus a 64-row Krylov basis; the n x n basis
    # read 2.11
    a = np.array(readme_like_graph().adjacency)
    assert N >= dynamics._LANCZOS_MIN_N
    peak = peak_in_adjacency_arrays(lambda: dynamics.gradient_operator_sq_norm(a))
    assert peak <= 1.4, peak
