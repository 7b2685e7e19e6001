"""Memory contract of the incremental PEEGA engine.

The scorer's persistent state is a fixed set of (n, d) images — the clean
representations ``M``, the forward and adjoint stacks, one gradient image
``∂L/∂M̂`` and the stacked GEMM factors — and every per-step temporary is
cut into row chunks.  Nothing the objective or the scorer keeps grows with
``E·d``: the global view reads ``M[dst]`` per node range instead of holding
a per-edge copy.  On citeseer at scale 0.15 (n = 316, d = 3,703, E = 1,160)
an E×d array is 34 MB, so a regression to per-edge row state shows up in
both checks below.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro import datasets
from repro.core import difference, peega
from repro.experiments import config

MIB = 2**20

#: Bound on the tracemalloc peak of one citeseer@0.15 attack.  The state
#: above is about 11 (n, d) float64 images (≈ 99 MiB) plus a slab-bounded
#: step; the attack peaked at 113 MiB when this bound was set, and at
#: 204 MiB while the objective kept its E×d copy of ``M[dst]``.
PEAK_BOUND_MIB = 140


@pytest.fixture(scope="module")
def citeseer():
    return datasets.load_dataset("citeseer", scale=0.15, seed=0)


def _held_arrays(owner, seen=None):
    """Every array an object keeps in its attributes, lists and tuples."""
    seen = set() if seen is None else seen
    stack = list(vars(owner).items())
    while stack:
        name, value = stack.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, (np.ndarray, sp.spmatrix)):
            yield name, value
        elif isinstance(value, (list, tuple)):
            stack.extend((f"{name}[{i}]", item) for i, item in enumerate(value))


def test_attack_peak_is_bounded(citeseer):
    attacker = config.make_attacker("PEEGA", "citeseer", seed=0)
    tracemalloc.start()
    try:
        result = attacker.attack(citeseer, perturbation_rate=0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.num_perturbations > 0
    assert peak / MIB <= PEAK_BOUND_MIB, f"attack peak {peak / MIB:.1f} MiB"


def test_no_per_edge_row_state(citeseer, monkeypatch):
    """No array the objective or the scorer holds has a per-edge row.

    The edge list ``(2, E)`` and the per-edge norms ``(E,)`` are the only
    arrays with a dimension of E: the objective value sums those norms in
    edge order, which PRBCD's best-sample rule compares exactly.
    """
    scorers = []

    class RecordingScorer(difference.IncrementalScorer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            scorers.append(self)

    monkeypatch.setattr(peega, "IncrementalScorer", RecordingScorer)
    attacker = config.make_attacker("PEEGA", "citeseer", seed=0)
    result = attacker.attack(citeseer, perturbation_rate=0.1)
    assert result.num_perturbations > 0 and len(scorers) == 1
    scorer = scorers[0]
    objective = scorer.objective
    num_edges = objective._edge_index.shape[1]
    n, d = citeseer.features.shape
    assert num_edges not in (n, d)

    seen: set[int] = set()
    held = list(_held_arrays(scorer, seen)) + list(_held_arrays(objective, seen))
    assert any(array.shape == (n, d) for _, array in held)
    per_edge = {
        name: array.shape
        for name, array in held
        if num_edges in array.shape and np.prod(array.shape) > 2 * num_edges
    }
    assert per_edge == {}
