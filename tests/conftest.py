import sys

import pytest

from daepos import (
    GridSpec,
    SynthWorld,
    build_dae_dataset,
    build_registry,
    generate_grid_dataset,
    make_fold_plan,
    perimeter_aps,
)


@pytest.fixture(scope="session")
def survey():
    """Deterministic synthetic survey: 105 signatures at 35 points."""
    world = SynthWorld(
        ap_positions=perimeter_aps(9, 12.0, 8.0),
        shadowing_sigma=2.5,
        path_loss_exponent=2.8,
        seed=11,
    )
    return generate_grid_dataset(world, GridSpec(nx=7, ny=5, spacing=2.0), scans_per_point=3)


@pytest.fixture(scope="session")
def survey_registry(survey):
    return build_registry(survey, 35)


@pytest.fixture(scope="session")
def survey_plan(survey):
    return make_fold_plan(len(survey), 5, seed=3)


@pytest.fixture(scope="session")
def survey_dataset_plain(survey, survey_registry, survey_plan):
    return build_dae_dataset(survey, survey_registry, survey_plan, k=4, variant="plain")


@pytest.fixture(scope="session")
def survey_dataset_xy(survey, survey_registry, survey_plan):
    return build_dae_dataset(survey, survey_registry, survey_plan, k=4, variant="xy")


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test that leaves a live child process, such as a pool worker, behind."""
    yield
    multiprocessing = sys.modules.get("multiprocessing")  # nothing started one if it was never imported
    if multiprocessing is not None:
        assert multiprocessing.active_children() == [], "the test left child processes running"
