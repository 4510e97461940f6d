import numpy as np
import pytest

from csgnn import equivariant, verify
from csgnn.graph import Graph


def graph_of(adjacency, features, **fields) -> Graph:
    """The `Graph` whose adjacency is `adjacency`, a symmetric 0/1 matrix."""
    a = np.asarray(adjacency, dtype=float)
    assert np.array_equal(a, a.T) and np.isin(a, (0.0, 1.0)).all(), "not a symmetric 0/1 matrix"
    g = Graph(edges=np.argwhere(np.triu(a)), features=features, **fields)
    assert np.array_equal(g.adjacency, a)
    return g


@pytest.fixture
def contraction_step_scale(monkeypatch):
    """`set_scale(scale)` makes verify's l1-contraction suite step at `scale`
    times the bound it checks; every other suite keeps its steps."""
    def set_scale(scale):
        suite, bound = verify.check_adjacency_l1_contraction, equivariant.max_step_adjacency

        def past_the_bound(rng, trials):
            with monkeypatch.context() as m:
                m.setattr(equivariant, "max_step_adjacency", lambda coeffs: bound(coeffs) * scale)
                return suite(rng, trials)

        monkeypatch.setattr(verify, "check_adjacency_l1_contraction", past_the_bound)
    return set_scale
