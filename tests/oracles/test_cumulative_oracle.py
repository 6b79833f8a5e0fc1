"""Noisy Algorithm 2 runs against the per-threshold scalar reference.

The noiseless half lives in ``tests/streams/test_bank.py``
(``test_synthesizer_engines_bit_identical``).  Under noise:

* a counter without a native bank already runs behind
  :class:`~repro.streams.bank.FallbackBank`, so the product run *is* the
  reference — threshold table, synthetic records and zCDP ledger agree
  bit for bit;
* a native bank draws the same noise law from a different stream, so its
  releases differ, but it charges the identical ledger and reports the
  identical per-threshold error scale.
"""

import math

import pytest

from oracles.cumulative import scalar_counters
from repro.core.cumulative import CumulativeSynthesizer
from repro.streams.bank import FallbackBank
from repro.streams.registry import available_banks, available_counters


@pytest.mark.parametrize("noise_method", ["exact", "vectorized"])
@pytest.mark.parametrize("name", sorted(available_counters()))
def test_noisy_run_matches_scalar_reference(name, noise_method, small_markov_panel):
    def build():
        return CumulativeSynthesizer(
            horizon=small_markov_panel.horizon,
            rho=0.5,
            counter=name,
            seed=11,
            noise_method=noise_method,
        )

    product = build()
    with scalar_counters():
        reference = build()
    assert isinstance(reference.bank, FallbackBank)
    assert isinstance(product.bank, FallbackBank) == (name not in available_banks())
    a = product.run(small_markov_panel)
    b = reference.run(small_markov_panel)

    assert product.accountant.charges == reference.accountant.charges
    assert math.isclose(product.accountant.spent, 0.5, rel_tol=1e-9)
    horizon = small_markov_panel.horizon
    for threshold in range(1, horizon + 1):
        position = horizon - threshold + 1
        assert product.counter_error_stddev(threshold, position) == pytest.approx(
            reference.counter_error_stddev(threshold, position), rel=1e-9
        )
    if name in available_banks():
        assert product.check_invariants() and reference.check_invariants()
    else:
        assert (a.threshold_table() == b.threshold_table()).all()
        assert a.synthetic_data() == b.synthetic_data()
