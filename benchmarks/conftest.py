"""Shared fixtures for the benchmark harness.

Every experiment benchmark runs against the ``smoke`` profile so the whole
harness completes in minutes on CPU.  ``EXPERIMENTS.md``, which
``scripts/generate_experiments_md.py`` generates and which is not committed,
reports the larger ``default`` profile (``python -m repro.experiments all
--profile default``).  Fitted models are cached inside the shared resources,
so benchmarks that reuse the same models (Table I → Figure 7 → Table IV) do
not refit them.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import get_profile, load_resources


@pytest.fixture(scope="session")
def smoke_profile():
    return get_profile("smoke")


@pytest.fixture(scope="session")
def resources(smoke_profile):
    return load_resources(smoke_profile)
