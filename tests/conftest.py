import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "requires_reference(path): the test reads reference test data at "
        "`path` at test time; it is skipped, naming the path, where that "
        "path is absent",
    )


def pytest_runtest_setup(item):
    for mark in item.iter_markers("requires_reference"):
        if not os.path.exists(mark.args[0]):
            pytest.skip(f"reference data absent: {mark.args[0]}")


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (driver contract: tests own
    the session; library code never calls ray.init)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def sf_dir():
    return "/root/testdata/sf0.001"
