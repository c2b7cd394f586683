import os

import pytest

from npgq import ExperimentConfig, run_experiment


@pytest.fixture(scope="session")
def paper_report():
    """The full accuracy-study grid at 1000 replications.

    Shared by the acceptance criteria and the experiment invariants; this
    is the longest single piece of the suite (about 2 s on two CPUs).
    """
    cfg = ExperimentConfig()
    jobs = min(2, os.cpu_count() or 1)
    return run_experiment(cfg, jobs=jobs)
