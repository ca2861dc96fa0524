import numpy as np
import pytest

from synkit import encoding, pipeline


@pytest.fixture(scope="session")
def egg_learning():
    """Shared learning artifacts for the default egg configuration."""
    config = pipeline.default_config("egg")
    demos, basis, gmm_model, reference = pipeline.build_reference(config)
    return {
        "config": config,
        "demos": demos,
        "basis": basis,
        "gmm": gmm_model,
        "reference": reference,
    }


@pytest.fixture(scope="session")
def egg_log():
    return pipeline.run_task(pipeline.default_config("egg"))


@pytest.fixture(scope="session")
def ketchup_log():
    return pipeline.run_task(pipeline.default_config("ketchup"))


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def make_reference(times, means, covs=None):
    """Small helper to assemble a ReferenceTrajectory from arrays."""
    times = np.asarray(times, dtype=float)
    means = np.asarray(means, dtype=float)
    if means.ndim == 1:
        means = means[:, None]
    s = means.shape[1]
    if covs is None:
        covs = np.tile(np.eye(s)[None, :, :], (times.shape[0], 1, 1))
    return encoding.ReferenceTrajectory(times=times, means=means,
                                        covariances=np.asarray(covs, dtype=float))
