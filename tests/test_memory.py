"""tracemalloc peaks of the phases that hold adjacency-sized arrays: one
training epoch and the Lanczos step bound at n=300, in units of one n x n
float64 array, and the data path (the SBM generator and the graph loader) at
n=3000, against the edges it stores. Each phase runs once before it is
measured, so one-time allocations (lazy imports, caches) are not counted."""

import tracemalloc

import numpy as np

from csgnn import dynamics
from csgnn.graph import load_graph, save_graph
from csgnn.sbm import gen_sbm
from csgnn.training import TrainConfig, train

N = 300
# the data path's size: a dense adjacency would be 72 MB
DATA_N = 3000


def peak_bytes(fn) -> int:
    fn()
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


def peak_in_adjacency_arrays(fn) -> float:
    return peak_bytes(fn) / (8 * N * N)


def readme_like_graph(n=N):
    return gen_sbm(n, classes=2, p_in=20 / n, p_out=5 / n, feat_dim=16, signal=1.3, seed=0)


def edges_and_one_block(g) -> int:
    """Eight float64 per nonzero adjacency entry, plus one 64-row block of an
    n x n float64 draw: an O(nnz + 64 n) budget."""
    return 8 * (8 * 2 * g.num_undirected_edges() + 64 * g.n)


def test_a_training_epoch_and_its_graph_hold_about_three_adjacency_sized_arrays():
    # layer 0's adjacency pullback holds A_0, the cotangent on A_1 and M(A_0),
    # plus 64-row blocks and (n, c) arrays. A_0 is built from the graph's
    # edges inside the call: the graph used to hold it before the entry,
    # where this read 2.64 above the entry and 4.75 in all, against 3.64 and
    # 4.81 now. The trace kept every A_l until backward returned, and the
    # epoch read 4.28 above the entry.
    g = readme_like_graph()
    peak = peak_in_adjacency_arrays(lambda: train(g, TrainConfig(seed=0, epochs=1)))
    assert peak <= 3.75, peak


def test_gen_sbm_holds_its_edges_and_one_block_of_rows():
    # the dense adjacency made it 1.14 n^2 (82.0 MB); now 2.35 MB against a
    # 3.95 MB budget
    g = readme_like_graph(DATA_N)
    peak = peak_bytes(lambda: readme_like_graph(DATA_N))
    assert peak <= edges_and_one_block(g), peak


def test_load_graph_holds_its_edges_and_one_block_of_rows(tmp_path):
    # the dense adjacency made it 1.14 n^2 (82.2 MB); now 1.93 MB
    g = readme_like_graph(DATA_N)
    save_graph(g, tmp_path)
    peak = peak_bytes(lambda: load_graph(tmp_path))
    assert peak <= edges_and_one_block(g), peak


def test_the_lanczos_step_bound_holds_about_one_adjacency_sized_array():
    # the edge weights 2 A o A, plus a 64-row Krylov basis; the n x n basis
    # read 2.11
    a = np.array(readme_like_graph().adjacency)
    assert N >= dynamics._LANCZOS_MIN_N
    peak = peak_in_adjacency_arrays(lambda: dynamics.gradient_operator_sq_norm(a))
    assert peak <= 1.4, peak
