"""Reference implementations the product paths are tested against.

The library ships one implementation of each algorithm.  The plain loops
it replaced live here, importable as ``oracles`` from tests (pytest's
default import mode puts ``tests/``, the directory of
``tests/conftest.py``, on ``sys.path``) and from benchmarks (through
``benchmarks/conftest.py``):

* :mod:`oracles.cumulative` — Algorithm 2 with one scalar stream counter
  per threshold;
* :mod:`oracles.window` — Algorithm 1's residue placement and record
  extension for ``q > 2`` as per-group / per-record loops.
"""
