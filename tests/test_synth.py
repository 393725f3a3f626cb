import math

import numpy as np
import pytest

from daepos import (
    ConfigError,
    GridSpec,
    Position2D,
    RadioMap,
    SynthWorld,
    build_registry,
    generate_grid_dataset,
    localize,
    perimeter_aps,
    sample_signature,
)
from daepos.signatures import COORD_MAX
from daepos.synth import PERIMETER_MARGIN_M, expected_rssi


def quiet_world(**kwargs):
    defaults = dict(
        ap_positions=(Position2D(0.0, 0.0), Position2D(10.0, 0.0)),
        tx_power=-40.0,
        path_loss_exponent=2.0,
        shadowing_sigma=0.0,
        detection_floor=-95.0,
        seed=0,
    )
    defaults.update(kwargs)
    return SynthWorld(**defaults)


def test_rssi_at_reference_distance_equals_tx_power():
    world = quiet_world()
    sig = sample_signature(world, Position2D(1.0, 0.0))
    assert sig.readings["ap000"] == world.tx_power


def test_rssi_log_distance_decade():
    # exponent 2 at ten reference distances: 20 dB below the reference power
    world = quiet_world()
    assert expected_rssi(world, Position2D(0.0, 0.0), Position2D(10.0, 0.0)) == pytest.approx(-60.0)
    sig = sample_signature(world, Position2D(10.0, 0.0))
    assert sig.readings["ap000"] == pytest.approx(-60.0)


def test_distance_clamped_at_reference():
    world = quiet_world()
    on_top = sample_signature(world, Position2D(0.0, 0.0))
    assert on_top.readings["ap000"] == world.tx_power


def test_same_seed_position_draw_is_identical():
    world = quiet_world(shadowing_sigma=3.0)
    a = sample_signature(world, Position2D(3.0, 4.0), draw=2)
    b = sample_signature(world, Position2D(3.0, 4.0), draw=2)
    assert a == b
    c = sample_signature(world, Position2D(3.0, 4.0), draw=3)
    assert dict(a.readings) != dict(c.readings)


def test_detection_floor_drops_weak_readings():
    world = quiet_world(detection_floor=-55.0)
    sig = sample_signature(world, Position2D(1.0, 0.0))  # far AP at ~-60 dBm
    assert "ap000" in sig.readings and "ap001" not in sig.readings


def test_grid_dataset_counts():
    world = quiet_world()
    sigs = generate_grid_dataset(world, GridSpec(nx=3, ny=3, spacing=2.0), scans_per_point=3)
    assert len(sigs) == 27
    assert len({s.point_id for s in sigs}) == 9


def test_noise_free_scans_at_a_point_identical():
    world = quiet_world()
    sigs = generate_grid_dataset(world, GridSpec(nx=2, ny=2, spacing=3.0), scans_per_point=3)
    by_point = {}
    for sig in sigs:
        by_point.setdefault(sig.point_id, []).append(sig)
    for scans in by_point.values():
        assert all(dict(s.readings) == dict(scans[0].readings) for s in scans)


def test_noise_free_rssi_strictly_decreases_with_distance():
    world = quiet_world()
    ap = world.ap_positions[0]
    previous = math.inf
    for d in (1.0, 1.5, 2.0, 4.0, 8.0, 16.0, 32.0):
        value = expected_rssi(world, ap, Position2D(ap.x + d, ap.y))
        assert value < previous
        previous = value


def test_shadowing_sample_std_converges():
    sigma = 2.0
    world = quiet_world(shadowing_sigma=sigma, ap_positions=(Position2D(0.0, 0.0),))
    position = Position2D(2.0, 0.0)
    readings = np.array(
        [sample_signature(world, position, draw=i).readings["ap000"] for i in range(10_000)]
    )
    assert abs(readings.std() - sigma) / sigma < 0.05


def test_noise_free_exact_match_pipeline_end_to_end():
    # dense noise-free map, query at a map node, k=1: zero positioning error
    world = quiet_world(ap_positions=perimeter_aps(6, 8.0, 8.0))
    sigs = generate_grid_dataset(world, GridSpec(nx=5, ny=5, spacing=2.0), scans_per_point=1)
    registry = build_registry(sigs, 10)
    radio_map = RadioMap.from_signatures(sigs, registry)
    query = sigs[7]
    vec = radio_map.vectors[7]
    est = localize(vec, radio_map, k=1)
    assert est.position == query.reference


def test_world_validation():
    with pytest.raises(ConfigError):
        quiet_world(path_loss_exponent=0.0)
    with pytest.raises(ConfigError):
        quiet_world(shadowing_sigma=-1.0)
    with pytest.raises(ConfigError):
        quiet_world(detection_floor=-30.0)  # above tx_power
    with pytest.raises(ConfigError):
        SynthWorld(ap_positions=())


def test_out_of_coverage_position_raises():
    world = quiet_world(detection_floor=-50.0, ap_positions=(Position2D(0.0, 0.0),))
    with pytest.raises(Exception):
        sample_signature(world, Position2D(100.0, 100.0))


def test_perimeter_aps_count_and_margin():
    aps = perimeter_aps(8, 10.0, 6.0)
    assert len(aps) == 8
    for ap in aps:
        assert -1.0 <= ap.x <= 11.0
        assert -1.0 <= ap.y <= 7.0


def test_perimeter_aps_stay_within_the_coordinate_bound():
    perimeter_aps(4, COORD_MAX - PERIMETER_MARGIN_M, 1.0)
    with pytest.raises(ConfigError, match="beyond"):
        perimeter_aps(4, COORD_MAX, 1.0)


def test_grid_spec_validation():
    with pytest.raises(ConfigError):
        GridSpec(nx=0, ny=3)
    with pytest.raises(ConfigError):
        GridSpec(nx=2, ny=2, spacing=0.0)
    GridSpec(nx=2, ny=1, spacing=COORD_MAX)
    with pytest.raises(ConfigError, match="exceeds"):
        GridSpec(nx=3, ny=1, spacing=0.6 * COORD_MAX)
