import pytest

from csgnn import equivariant, verify


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
