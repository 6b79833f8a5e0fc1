"""Algorithm 1 at ``q > 2`` against the per-group / per-record reference loops.

The batched residue placement and one-argsort record extension draw from
different generator streams than the loops in ``tests/oracles/window.py``,
so the comparisons are exact where the algorithm is deterministic (group
sums, quotas, residue-free projections) and statistical on the random
placements, within the 0.15 tolerance of
``test_window_engine.py::test_vectorized_residue_uniform``.
"""

import numpy as np
import pytest

from oracles.window import assign_within_groups_loop, group_correction_loop
from repro.core.consistency import apply_group_correction, check_group_consistency
from repro.core.synthetic_store import _assign_within_groups
from repro.rng import as_generator

TOLERANCE = 0.15
TRIALS = 300


def _residue_case(q):
    """``k = 2`` histograms in which every group has a non-zero residue."""
    generator = as_generator(q)
    previous = generator.integers(5, 20, size=q * q).astype(np.int64)
    totals = previous.reshape(q, q).sum(axis=0)  # M_z: sums over the first symbol
    noisy = np.zeros(q * q, dtype=np.int64)
    for z in range(q):
        # Children short of M_z by q + r: base 1, residue r = 1 + z mod (q-1).
        shortfall = q + 1 + z % (q - 1)
        noisy[z * q : (z + 1) * q] = generator.multinomial(
            totals[z] - shortfall, np.full(q, 1.0 / q)
        )
    return previous, noisy


@pytest.mark.parametrize("q", [3, 4])
def test_group_correction_matches_loop(q):
    previous, noisy = _residue_case(q)
    batched = np.zeros(q * q)
    looped = np.zeros(q * q)
    for seed in range(TRIALS):
        a, events_a = apply_group_correction(previous, noisy, q, as_generator(seed))
        b, events_b = group_correction_loop(previous, noisy, q, as_generator(seed))
        assert check_group_consistency(previous, a, q)
        assert check_group_consistency(previous, b, q)
        assert events_a == events_b == 0
        batched += a
        looped += b
    # Each child gets floor(D_z / q) plus a residue unit w.p. residue / q.
    totals = previous.reshape(q, q).sum(axis=0)
    discrepancy = totals - noisy.reshape(q, q).sum(axis=1)
    base, residue = np.divmod(discrepancy, q)
    expected = (noisy.reshape(q, q) + (base + residue / q)[:, None]).reshape(-1)
    assert np.abs(batched / TRIALS - expected).max() < TOLERANCE
    assert np.abs(looped / TRIALS - expected).max() < TOLERANCE
    assert np.abs(batched / TRIALS - looped / TRIALS).max() < TOLERANCE


@pytest.mark.parametrize("q", [3, 4])
def test_group_correction_residue_free_is_identical(q):
    # Discrepancies divisible by q leave nothing to place at random, so
    # both paths are deterministic — negative-count redistribution included.
    generator = as_generator(10 + q)
    previous = generator.integers(0, 6, size=q**3).astype(np.int64)
    totals = previous.reshape(q, q * q).sum(axis=0)
    noisy = generator.integers(-8, 12, size=q**3).astype(np.int64)
    groups = noisy.reshape(q * q, q)
    groups[:, 0] += (totals - groups.sum(axis=1)) % q
    a, events_a = apply_group_correction(previous, noisy, q, as_generator(0))
    b, events_b = group_correction_loop(previous, noisy, q, as_generator(0))
    assert events_a == events_b > 0
    assert (a == b).all()
    assert check_group_consistency(previous, a, q)


@pytest.mark.parametrize("q", [3, 4])
def test_assignment_matches_loop(q):
    generator = as_generator(20 + q)
    n_groups = 3
    group_of = np.repeat(np.arange(n_groups), [7, 9, 5])
    generator.shuffle(group_of)
    sizes = np.bincount(group_of, minlength=n_groups)
    quotas = np.array(
        [np.bincount(generator.integers(0, q, size=s), minlength=q) for s in sizes]
    )
    batched = np.zeros((group_of.size, q))
    looped = np.zeros((group_of.size, q))
    rows = np.arange(group_of.size)
    for seed in range(TRIALS):
        for assign, tally in (
            (_assign_within_groups, batched),
            (assign_within_groups_loop, looped),
        ):
            labels = assign(group_of, n_groups, quotas, as_generator(seed))
            for g in range(n_groups):
                counts = np.bincount(labels[group_of == g], minlength=q)
                assert (counts == quotas[g]).all()
            tally[rows, labels] += 1
    # Each record of group g takes label l with probability quotas[g, l] / size.
    expected = quotas[group_of] / sizes[group_of][:, None]
    assert np.abs(batched / TRIALS - expected).max() < TOLERANCE
    assert np.abs(looped / TRIALS - expected).max() < TOLERANCE
    assert np.abs(batched / TRIALS - looped / TRIALS).max() < TOLERANCE
