"""Reference Algorithm 1 steps for ``q > 2``: per-group and per-record loops.

The library places each overlap group's residue with one batched key draw
(:func:`repro.core.consistency.apply_group_correction`) and extends every
record with one argsort (:func:`repro.core.synthetic_store._assign_within_groups`).
The loops below are the paper-pseudocode granularity those replace: one
``generator.choice`` per group with a residue, and one sequential draw per
synthetic record.  They implement the same laws from different generator
streams, so comparisons are exact on counts and quotas and statistical on
the random placements.

:func:`reference_loops` patches both loops into the window engine, so every
window synthesizer stepped inside the block runs on them end to end.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np

from repro.core import synthetic_store, window_engine
from repro.core.consistency import group_totals
from repro.exceptions import ConfigurationError, NegativeCountError

__all__ = ["group_correction_loop", "assign_within_groups_loop", "reference_loops"]


def group_correction_loop(
    previous_counts: np.ndarray,
    noisy_counts: np.ndarray,
    alphabet: int,
    generator: np.random.Generator,
    on_negative: str = "redistribute",
) -> tuple[np.ndarray, int]:
    """:func:`~repro.core.consistency.apply_group_correction`, one group at a time."""
    if on_negative not in ("redistribute", "raise"):
        raise ConfigurationError(
            f"on_negative must be 'redistribute' or 'raise', got {on_negative!r}"
        )
    previous = np.asarray(previous_counts, dtype=np.int64)
    noisy = np.asarray(noisy_counts, dtype=np.int64)
    totals = group_totals(previous, alphabet)
    n_bins = previous.shape[0]
    children = noisy.reshape(n_bins // alphabet, alphabet).copy()

    base, residue = np.divmod(totals - children.sum(axis=1), alphabet)
    children += base[:, None]
    for z in np.flatnonzero(residue):
        picks = generator.choice(alphabet, size=int(residue[z]), replace=False)
        children[z, picks] += 1

    negative_groups = (children < 0).any(axis=1)
    n_events = int(negative_groups.sum())
    if n_events and on_negative == "raise":
        bad = int(np.flatnonzero(negative_groups)[0])
        raise NegativeCountError(f"target counts went negative for overlap group z={bad}")
    for z in np.flatnonzero(negative_groups):
        row = np.maximum(children[z], 0)
        excess = int(row.sum() - totals[z])
        while excess > 0:
            top = int(row.argmax())
            take = min(excess, int(row[top]))
            row[top] -= take
            excess -= take
        children[z] = row
    return children.reshape(n_bins), n_events


def assign_within_groups_loop(
    group_of: np.ndarray,
    n_groups: int,
    quotas: np.ndarray,
    generator: np.random.Generator,
) -> np.ndarray:
    """:func:`~repro.core.synthetic_store._assign_within_groups`, one record at a time.

    Walks the records in index order and draws each one's label without
    replacement from its group's remaining quota.  Quotas are trusted
    (the store validates them before extending).
    """
    remaining = np.asarray(quotas, dtype=np.int64).copy()
    labels = np.zeros(group_of.shape[0], dtype=np.int64)
    if not remaining[:, 1:].any():
        return labels
    for i in range(group_of.shape[0]):
        row = remaining[group_of[i]]
        u = int(generator.integers(int(row.sum())))
        label = 0
        acc = int(row[0])
        while u >= acc:
            label += 1
            acc += int(row[label])
        labels[i] = label
        row[label] -= 1
    return labels


@contextlib.contextmanager
def reference_loops():
    """Run window synthesizers on the reference loops inside the block.

    Only alphabets above 2 reach the group correction (``q = 2`` keeps its
    paired rounding); record extension is patched for every alphabet.
    """
    with (
        mock.patch.object(window_engine, "apply_group_correction", group_correction_loop),
        mock.patch.object(
            synthetic_store, "_assign_within_groups", assign_within_groups_loop
        ),
    ):
        yield
