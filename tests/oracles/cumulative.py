"""Reference Algorithm 2: one scalar stream counter per threshold.

:func:`scalar_counters` makes every
:class:`~repro.core.cumulative.CumulativeSynthesizer` built inside the
block run its thresholds on a :class:`~repro.streams.bank.FallbackBank`
over the synthesizer's own per-threshold seeds: one standalone
:class:`~repro.streams.base.StreamCounter` per threshold, created when the
threshold activates and seeded from its spawned counter seed.  That is the
per-threshold scalar path the synthesizer once carried as
``engine="scalar"``, bit for bit — noise, synthetic records and zCDP
ledger included — for native-bank and fallback counters alike.

The bank is chosen when a synthesizer is constructed, so the block must
cover construction (including ``from_config`` on restore); later rounds
may run outside it.
"""

from __future__ import annotations

import contextlib
from unittest import mock

from repro.core import cumulative
from repro.streams.bank import FallbackBank

__all__ = ["scalar_counters"]


def _fallback_bank(
    name,
    horizon,
    rho_per_threshold,
    *,
    seeds=None,
    noise_method="vectorized",
    n_reps=1,
    counter_kwargs=None,
):
    """:func:`~repro.streams.registry.make_bank`, minus the native banks."""
    return FallbackBank(
        horizon,
        rho_per_threshold,
        seeds=seeds,
        noise_method=noise_method,
        n_reps=n_reps,
        counter=name,
        counter_kwargs=counter_kwargs,
    )


@contextlib.contextmanager
def scalar_counters():
    """Build cumulative synthesizers on per-threshold scalar counters."""
    with mock.patch.object(cumulative, "make_bank", _fallback_bank):
        yield
