import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daepos import (
    ApRegistry,
    ContractError,
    DatasetError,
    FormatError,
    Position2D,
    RadioSignature,
    RowError,
    build_registry,
    feature_matrix,
    parse_signatures,
    vectorize,
    write_signatures,
)
from daepos.signatures import RSSI_MAX, RSSI_MIN


def parse_text(text, fmt="canonical"):
    return parse_signatures(io.StringIO(text), fmt)


def random_signatures(rng, n, ap_pool=("a", "b", "c", "d", "e")):
    sigs = []
    for i in range(n):
        n_read = int(rng.integers(1, len(ap_pool) + 1))
        aps = rng.choice(len(ap_pool), size=n_read, replace=False)
        readings = {ap_pool[a]: float(rng.uniform(-110, -30)) for a in aps}
        sigs.append(
            RadioSignature(f"p{i}", Position2D(float(rng.uniform(0, 20)), float(rng.uniform(0, 20))), readings)
        )
    return sigs


# --- parsing ---------------------------------------------------------------


def test_parse_blank_cell_becomes_missing_reading():
    text = "point_id,x,y,ap1,ap2\np1,0,0,-50,-60\np2,1,0,,-55\np3,2,0,-45,-70\n"
    sigs = parse_text(text)
    assert len(sigs) == 3
    assert len(sigs[1].readings) == 1
    assert sigs[1].readings["ap2"] == -55.0


def test_parse_header_without_coordinates_is_format_error():
    with pytest.raises(FormatError):
        parse_text("point_id,ap1,ap2\np1,-50,-60\n")


def test_parse_empty_file_is_dataset_error():
    with pytest.raises(DatasetError):
        parse_text("")
    with pytest.raises(DatasetError):
        parse_text("point_id,x,y,ap1\n")


def test_parse_non_numeric_coordinate_reports_row():
    text = "point_id,x,y,ap1\np1,0,0,-50\np2,oops,0,-50\n"
    with pytest.raises(RowError) as err:
        parse_text(text)
    assert err.value.row == 2


def test_parse_unreadable_rssi_cell_is_missing():
    sigs = parse_text("point_id,x,y,ap1,ap2\np1,0,0,n/a,-60\n")
    assert dict(sigs[0].readings) == {"ap2": -60.0}


def test_parse_out_of_range_rssi_is_row_error():
    with pytest.raises(RowError, match=r"^row 2: RSSI 17.5 dBm for AP 'ap1' outside \[-120.0, 0.0\]$"):
        parse_text("point_id,x,y,ap1\np1,0,0,-50\np2,0,0,17.5\n")


def test_zenodo_sentinels_are_misses_and_rows_without_id_are_numbered():
    sigs = parse_text("x,y,ap1,ap2,ap3\n1,2,0,-200,-60\n3,4,-55,,100\n", fmt="zenodo")
    assert [s.point_id for s in sigs] == ["row1", "row2"]
    assert [dict(s.readings) for s in sigs] == [{"ap3": -60.0}, {"ap1": -55.0}]


def test_parse_row_with_no_readings_is_row_error():
    with pytest.raises(RowError):
        parse_text("point_id,x,y,ap1,ap2\np1,0,0,,\n")


def test_parse_skips_leading_comment_lines():
    sigs = parse_text("# config_hash=deadbeef seed=1\npoint_id,x,y,ap1\np1,0.5,1.5,-42\n")
    assert sigs[0].reference == Position2D(0.5, 1.5)


def test_roundtrip_random_signatures_identical():
    rng = np.random.default_rng(42)
    sigs = random_signatures(rng, 10)
    buf = io.StringIO()
    write_signatures(sigs, buf)
    reparsed = parse_signatures(io.StringIO(buf.getvalue()))
    assert reparsed == sigs


@st.composite
def signature_lists(draw):
    ap_id = st.text("0123456789abcdef:", min_size=1, max_size=6)
    aps = draw(st.lists(ap_id, min_size=1, max_size=5, unique=True))
    coordinate = st.floats(allow_nan=False, allow_infinity=False)
    # ids are stripped on parse; letters, digits, punctuation, inner spaces and line breaks survive
    id_chars = st.sampled_from(' ,"#\r\n\x1c\x85\u2028') | st.characters(whitelist_categories=("L", "N", "P", "Zs"))
    point_id = st.text(id_chars, max_size=8).map(str.strip)
    readings = st.dictionaries(st.sampled_from(aps), st.floats(RSSI_MIN, RSSI_MAX), min_size=1)
    signature = st.builds(
        RadioSignature, point_id, st.builds(Position2D, coordinate, coordinate), readings
    )
    return draw(st.lists(signature, min_size=1, max_size=6))


@settings(max_examples=200, deadline=None)
@given(sigs=signature_lists(), comment=st.sampled_from([None, "config_hash=x seed=0"]))
def test_roundtrip_property_write_then_parse(sigs, comment):
    buf = io.StringIO()
    write_signatures(sigs, buf, comment=comment)
    assert parse_signatures(io.StringIO(buf.getvalue())) == sigs


def test_zenodo_adapter_maps_loose_columns():
    text = "Label,POS_X,pos_y,aa:bb,cc:dd\nq7,1.25,3.5,-61,100\n"
    sigs = parse_text(text, fmt="zenodo")
    assert sigs[0].point_id == "q7"
    assert sigs[0].reference == Position2D(1.25, 3.5)
    assert dict(sigs[0].readings) == {"aa:bb": -61.0}  # 100 is a missing-value sentinel


def test_zenodo_adapter_without_coordinates_is_format_error():
    with pytest.raises(FormatError):
        parse_text("Label,aa,bb\nq,1,2\n", fmt="zenodo")


def test_unknown_format_is_contract_error():
    with pytest.raises(ContractError):
        parse_text("point_id,x,y,a\np,0,0,-50\n", fmt="parquet")


# --- registry ---------------------------------------------------------------


def test_registry_ranks_by_availability():
    # detection counts: A=3, B=2, C=1
    sigs = [
        RadioSignature("p1", Position2D(0, 0), {"A": -50.0, "B": -60.0, "C": -70.0}),
        RadioSignature("p2", Position2D(1, 0), {"A": -52.0, "B": -61.0}),
        RadioSignature("p3", Position2D(2, 0), {"A": -54.0}),
    ]
    registry = build_registry(sigs, 2)
    assert registry.aps == ("A", "B")
    assert registry.availability == (3, 2)


def test_registry_saturates_when_m_exceeds_ap_count():
    sigs = [RadioSignature("p", Position2D(0, 0), {"A": -50.0, "B": -60.0})]
    assert len(build_registry(sigs, 35)) == 2


def test_registry_tie_break_higher_mean_rssi_then_id():
    sigs = [
        RadioSignature("p1", Position2D(0, 0), {"weak": -90.0, "strong": -40.0, "z": -40.0, "a": -40.0}),
        RadioSignature("p2", Position2D(1, 0), {"weak": -90.0, "strong": -40.0, "z": -40.0, "a": -40.0}),
    ]
    registry = build_registry(sigs, 4)
    # equal counts everywhere: mean RSSI first, lexicographic id among equals
    assert registry.aps == ("a", "strong", "z", "weak")


def test_registry_deterministic_under_permutation():
    rng = np.random.default_rng(7)
    sigs = random_signatures(rng, 30)
    reference = build_registry(sigs, 4)
    for _ in range(10):
        perm = rng.permutation(len(sigs))
        shuffled = [sigs[i] for i in perm]
        assert build_registry(shuffled, 4) == reference


def test_registry_counts_match_brute_force_recount():
    rng = np.random.default_rng(13)
    for _ in range(20):
        sigs = random_signatures(rng, int(rng.integers(2, 25)))
        registry = build_registry(sigs, 5)
        for ap, count in zip(registry.aps, registry.availability):
            assert count == sum(1 for s in sigs if ap in s.readings)


def test_registry_empty_dataset_is_dataset_error():
    with pytest.raises(DatasetError):
        build_registry([], 5)


# --- vectorize ---------------------------------------------------------------


def test_vectorize_fills_missing_with_constant():
    registry = ApRegistry(aps=("AP1", "AP2"), availability=(1, 0))
    sig = RadioSignature("p", Position2D(0, 0), {"AP1": -50.0})
    assert vectorize(sig, registry, fill=-99.0).tolist() == [-50.0, -99.0]


def test_vectorize_complete_signature_uses_no_fill():
    registry = ApRegistry(aps=("b", "a"), availability=(1, 1))
    sig = RadioSignature("p", Position2D(0, 0), {"a": -40.0, "b": -70.0})
    assert vectorize(sig, registry, fill=-99.0).tolist() == [-70.0, -40.0]


def test_vectorize_drops_readings_outside_registry():
    registry = ApRegistry(aps=("a",), availability=(1,))
    sig = RadioSignature("p", Position2D(0, 0), {"a": -40.0, "other": -50.0})
    assert vectorize(sig, registry).tolist() == [-40.0]


def test_vectorize_fill_count_matches_missing_count():
    rng = np.random.default_rng(5)
    pool = tuple(f"ap{i}" for i in range(8))
    for _ in range(50):
        sigs = random_signatures(rng, int(rng.integers(2, 15)), ap_pool=pool)
        registry = build_registry(sigs, int(rng.integers(1, 9)))
        fill = -99.0
        for sig in sigs:
            vec = vectorize(sig, registry, fill)
            assert vec.shape == (len(registry),)
            overlap = sum(1 for ap in sig.readings if registry.index_of(ap) is not None)
            assert int(np.sum(vec == fill)) == len(registry) - overlap


def test_feature_matrix_shape(survey, survey_registry):
    matrix = feature_matrix(survey, survey_registry)
    assert matrix.shape == (len(survey), len(survey_registry))
    assert np.isfinite(matrix).all()


# --- domain type invariants ---------------------------------------------------


def test_signature_requires_readings_and_valid_range():
    with pytest.raises(ValueError):
        RadioSignature("p", Position2D(0, 0), {})
    with pytest.raises(ValueError):
        RadioSignature("p", Position2D(0, 0), {"a": 5.0})


def test_position_requires_finite_coordinates():
    with pytest.raises(ValueError):
        Position2D(float("nan"), 0.0)


def test_signature_readings_are_frozen():
    sig = RadioSignature("p", Position2D(0, 0), {"a": -40.0})
    with pytest.raises(TypeError):
        sig.readings["b"] = -50.0
