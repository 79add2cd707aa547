"""Shared fixtures for the paper-artefact benchmarks (figures and ablations).

The benchmarks regenerate the paper's figures and ablation studies on the
synthetic SOC.  The device size and the ATPG effort are configurable through
environment variables so the same harness can run as a quick smoke benchmark
(default) or as a longer, closer-to-the-paper run:

* ``REPRO_SOC_SIZE``      — SOC size factor (default 1);
* ``REPRO_ATPG_BACKTRACKS`` — PODEM backtrack limit (default 25);
* ``REPRO_RANDOM_BATCHES``  — random-phase batches (default 4).

The Table 1 reproduction itself runs in the tier-1 suite
(``tests/test_experiments_results.py``) and in ``perfbench``'s
``atpg-table1`` workload.
"""

from __future__ import annotations

import os

import pytest

from repro.api import prepare_design
from repro.atpg import AtpgOptions


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return default


SOC_SIZE = _env_int("REPRO_SOC_SIZE", 1)
BACKTRACK_LIMIT = _env_int("REPRO_ATPG_BACKTRACKS", 25)
RANDOM_BATCHES = _env_int("REPRO_RANDOM_BATCHES", 4)


@pytest.fixture(scope="session")
def atpg_options() -> AtpgOptions:
    return AtpgOptions(
        random_pattern_batches=RANDOM_BATCHES,
        patterns_per_batch=64,
        backtrack_limit=BACKTRACK_LIMIT,
        random_seed=2005,
    )


@pytest.fixture(scope="session")
def prepared_soc():
    """The scan-inserted synthetic SOC shared by every benchmark."""
    return prepare_design(size=SOC_SIZE, seed=2005, num_chains=6)
