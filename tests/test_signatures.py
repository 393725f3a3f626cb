import csv
import io
import itertools
import math
import tracemalloc

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
    SignatureTable,
    build_registry,
    feature_matrix,
    parse_signatures,
    vectorize,
    write_signatures,
)
from daepos.errors import DaeposError
from daepos.signatures import COORD_MAX, FILL_DBM, RSSI_MAX, RSSI_MIN


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
    assert list(reparsed) == sigs


@st.composite
def signature_lists(draw):
    ap_id = st.text("0123456789abcdef:", min_size=1, max_size=6)
    aps = draw(st.lists(ap_id, min_size=1, max_size=5, unique=True))
    coordinate = st.floats(-COORD_MAX, COORD_MAX)
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
    assert list(parse_signatures(io.StringIO(buf.getvalue()))) == sigs


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
    assert vectorize(sig, registry).tolist() == [-50.0, FILL_DBM]


def test_vectorize_complete_signature_uses_no_fill():
    registry = ApRegistry(aps=("b", "a"), availability=(1, 1))
    sig = RadioSignature("p", Position2D(0, 0), {"a": -40.0, "b": -70.0})
    assert vectorize(sig, registry).tolist() == [-70.0, -40.0]


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
        for sig in sigs:
            vec = vectorize(sig, registry)
            assert vec.shape == (len(registry),)
            overlap = sum(1 for ap in sig.readings if registry.index_of(ap) is not None)
            assert int(np.sum(vec == FILL_DBM)) == len(registry) - overlap


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


def test_coordinates_beyond_the_bound_are_rejected():
    Position2D(-COORD_MAX, COORD_MAX)
    with pytest.raises(ValueError, match="within"):
        Position2D(0.0, 1.7e308)
    for fmt, header in (("canonical", "point_id,x,y,a"), ("zenodo", "id,pos_x,pos_y,a")):
        text = f"{header}\np1,0.0,0.0,-50\np2,{-2 * COORD_MAX!r},1.0,-60\n"
        with pytest.raises(RowError, match="row 2: position coordinates must be finite and within"):
            parse_signatures(io.StringIO(text), fmt)


def test_signature_readings_are_frozen():
    sig = RadioSignature("p", Position2D(0, 0), {"a": -40.0})
    with pytest.raises(TypeError):
        sig.readings["b"] = -50.0


# --- the survey table ---------------------------------------------------------


def test_table_of_a_list_has_sorted_columns_and_gives_the_scans_back():
    sigs = [
        RadioSignature("p1", Position2D(0, 1), {"b": -50.0, "a": -60.0}),
        RadioSignature("p2", Position2D(2, 3), {"c": -70.5}),
    ]
    table = SignatureTable.of(sigs)
    assert table.ap_ids == ("a", "b", "c")
    assert table.point_ids == ("p1", "p2")
    np.testing.assert_array_equal(table.references, [[0.0, 1.0], [2.0, 3.0]])
    np.testing.assert_array_equal(table.rssi, [[-60.0, -50.0, np.nan], [np.nan, np.nan, -70.5]])
    assert len(table) == 2 and list(table) == sigs
    assert table[-1] == sigs[1] and table[:1] == sigs[:1]
    assert SignatureTable.of(table) is table


def test_table_arrays_are_read_only():
    table = SignatureTable.of([RadioSignature("p", Position2D(0, 0), {"a": -40.0})])
    for array in (table.rssi, table.references):
        with pytest.raises(ValueError):
            array[0, 0] = 1.0


@pytest.mark.parametrize(
    "point_ids, references, ap_ids, rssi, message",
    [
        (("p",), [[0.0, 0.0]], ("a", "b"), [[np.nan, np.nan]], "needs at least one reading"),
        (("p",), [[0.0, 0.0]], ("a", "b"), [[-50.0, 5.0]], r"RSSI 5.0 dBm for AP 'b' outside"),
        (("p",), [[0.0, 0.0]], ("a",), [[-np.inf]], r"RSSI -inf dBm for AP 'a' outside"),
        (("p",), [[np.inf, 0.0]], ("a",), [[-50.0]], "coordinates must be finite"),
        (("p",), [[0.0, -2e9]], ("a",), [[-50.0]], r"coordinates must be finite and within \+-1e\+09 m"),
        (("p",), [[0.0, 0.0]], ("a", ""), [[-50.0, -60.0]], "empty AP identifier"),
        (("p",), [[0.0, 0.0]], ("a", "a"), [[-50.0, -60.0]], "duplicate AP"),
        (("p", "q"), [[0.0, 0.0]], ("a",), [[-50.0], [-60.0]], "do not fit 2 scans of 1 APs"),
    ],
    ids=["no-reading", "out-of-range", "inf-reading", "inf-reference", "far-reference", "empty-ap", "duplicate-ap",
         "shape"],
)
def test_table_checks_what_a_signature_checks(point_ids, references, ap_ids, rssi, message):
    with pytest.raises(ValueError, match=message):
        SignatureTable(point_ids, np.array(references), ap_ids, np.array(rssi))


# --- the replaced per-signature code, kept as oracles ----------------------------


def _old_rows(text):
    lines, pending = [], ""
    for piece in text.splitlines(keepends=True):
        pending += piece
        if piece.endswith(("\n", "\r")):
            lines.append(pending)
            pending = ""
    if pending:
        lines.append(pending)
    lines = itertools.dropwhile(lambda line: line.lstrip().startswith("#"), lines)
    return [row for row in csv.reader(lines) if row]


def _old_float(cell):
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _old_parse(text, fmt):
    from daepos.signatures import _LAYOUTS

    rows = _old_rows(text)
    if not rows:
        raise DatasetError("empty signature file")
    locate, sentinels = _LAYOUTS[fmt]
    header = [h.strip() for h in rows[0]]
    pi, xi, yi = locate(header)
    ap_cols = [i for i in range(len(header)) if i not in {pi, xi, yi}]
    ap_ids = [header[i] for i in ap_cols]
    if not ap_ids:
        raise FormatError("no AP columns left after removing coordinate/id columns")
    if len(set(ap_ids)) != len(ap_ids) or not all(ap_ids):
        raise FormatError("AP columns must be non-empty and unique")
    if len(rows) == 1:
        raise DatasetError("signature file has a header but no data rows")
    signatures = []
    for num, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise RowError(num, f"expected {len(header)} cells, got {len(row)}")
        x, y = _old_float(row[xi]), _old_float(row[yi])
        if x is None or y is None:
            raise RowError(num, f"non-numeric coordinate ({row[xi]!r}, {row[yi]!r})")
        readings = {}
        for ap, i in zip(ap_ids, ap_cols):
            cell = row[i].strip()
            rssi = _old_float(cell) if cell else None
            if rssi is None or (sentinels and (rssi == 0.0 or not RSSI_MIN <= rssi <= RSSI_MAX)):
                continue
            readings[ap] = rssi
        if not readings:
            raise RowError(num, "scan contains no readings")
        point_id = row[pi].strip() if pi is not None else f"row{num}"
        try:
            signatures.append(RadioSignature(point_id, Position2D(x, y), readings))
        except ValueError as exc:
            raise RowError(num, str(exc)) from None
    return signatures


def _old_build_registry(signatures, m):
    counts, rssi_sums = {}, {}
    for sig in signatures:
        for ap, rssi in sig.readings.items():
            counts[ap] = counts.get(ap, 0) + 1
            rssi_sums[ap] = rssi_sums.get(ap, 0.0) + rssi
    ranked = sorted(counts, key=lambda ap: (-counts[ap], -rssi_sums[ap] / counts[ap], ap))
    kept = ranked[: min(m, len(ranked))]
    return ApRegistry(aps=tuple(kept), availability=tuple(counts[ap] for ap in kept))


def _old_feature_matrix(signatures, registry):
    rows = []
    for sig in signatures:
        vec = np.full(len(registry), FILL_DBM)
        for ap, rssi in sig.readings.items():
            slot = registry.index_of(ap)
            if slot is not None:
                vec[slot] = rssi
        rows.append(vec)
    return np.stack(rows)


def _outcome(parse):
    try:
        return "ok", list(parse())
    except DaeposError as exc:
        return type(exc).__name__, str(exc)


class _TrickleStream:
    """A text stream that returns at most ``step`` characters per read."""

    def __init__(self, text, step):
        self.text, self.step, self.pos = text, step, 0

    def read(self, size=-1):
        chunk = self.text[self.pos : self.pos + self.step]
        self.pos += len(chunk)
        return chunk


# cells that read as a missed detection in both layouts, and cells outside
# [-120, 0] dBm: row errors in the canonical layout, sentinels in the zenodo one
_MISSING_CELLS = ["", " ", "n/a", "nan", "-inf", "1e400", "--50"]
_OUTSIDE_CELLS = ["100", "-200", "-130", "-120.00001", "0.5", "5e-324", " 17 "]
_CORRUPTIONS = ["short", "long", "blank", "coordinate", "outside", "missing"]


@st.composite
def survey_texts(draw):
    """Canonical and zenodo files with padded, unparseable, non-finite and sentinel cells."""
    fmt = draw(st.sampled_from(["canonical", "zenodo"]))
    aps = [f"ap{j}" for j in range(draw(st.integers(1, 4)))]
    if fmt == "canonical":
        header = ["point_id", "x", "y", *aps]
        coordinate_cols = [1, 2]
    else:
        header = draw(st.permutations(draw(st.sampled_from([["Label"], ["id"], []])) + ["POS_X", " y_m", *aps]))
        coordinate_cols = [header.index("POS_X"), header.index(" y_m")]
    rssi = st.one_of(
        st.integers(-100, -30).map(str),
        st.floats(RSSI_MIN, RSSI_MAX).map(repr),
        st.sampled_from([" -70 ", "-0.0", "0", "-120", "-1_0", *_MISSING_CELLS]),
    )
    coordinate = st.one_of(st.floats(-1e3, 1e3).map(repr), st.sampled_from(["0", " 1.5 ", "2e1"]))
    ids = {"point_id": st.sampled_from(["p1", " p2 ", "", "q#"]), "Label": st.sampled_from(["a", " b "]),
           "id": st.just("i")}
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        cells = []
        for i, name in enumerate(header):
            cells.append(draw(coordinate if i in coordinate_cols else ids.get(name, rssi)))
        ap_cols = [i for i, name in enumerate(header) if name in aps]
        shape = draw(st.sampled_from(["row"] * 3 * len(_CORRUPTIONS) + _CORRUPTIONS))
        if shape == "short":
            cells = cells[:-1]
        elif shape == "long":
            cells.append("-50")
        elif shape == "coordinate":
            cells[draw(st.sampled_from(coordinate_cols))] = draw(st.sampled_from(["oops", "", "nan", "-inf"]))
        elif shape == "outside":
            cells[draw(st.sampled_from(ap_cols))] = draw(st.sampled_from(_OUTSIDE_CELLS))
        elif shape == "missing":
            for i in ap_cols:
                cells[i] = draw(st.sampled_from(_MISSING_CELLS))
        lines.append("" if shape == "blank" else ",".join(cells))
    comments = draw(st.lists(st.sampled_from(["# config_hash=x seed=0", "  # note"]), max_size=2))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(comments) + len(lines),
                         max_size=len(comments) + len(lines)))
    return fmt, "".join(line + end for line, end in zip([*comments, *lines], ends))


@settings(max_examples=400, deadline=None)
@given(case=survey_texts(), step=st.integers(1, 7))
def test_parse_matches_the_per_signature_oracle(case, step):
    fmt, text = case
    expected = _outcome(lambda: _old_parse(text, fmt))
    assert _outcome(lambda: parse_signatures(io.StringIO(text), fmt)) == expected
    # short reads split lines, and "\r\n" pairs, across reads
    assert _outcome(lambda: parse_signatures(_TrickleStream(text, step), fmt)) == expected
    if expected[0] == "ok":
        table, sigs = parse_signatures(io.StringIO(text), fmt), expected[1]
        for m in range(1, len(table.ap_ids) + 2):
            registry = build_registry(table, m)
            assert registry == _old_build_registry(sigs, m)
            assert feature_matrix(table, registry).tobytes() == _old_feature_matrix(sigs, registry).tobytes()


def test_parse_reports_the_first_out_of_range_reading_of_the_first_bad_row():
    text = "point_id,x,y,a,b\np1,0,0,-50,\np2,1,0,-60,-130\np3,2,0,5,\n"
    with pytest.raises(RowError, match=r"^row 2: RSSI -130.0 dBm for AP 'b' outside \[-120.0, 0.0\]$"):
        parse_text(text)
    assert _outcome(lambda: parse_text(text)) == _outcome(lambda: _old_parse(text, "canonical"))


def test_path_parse_joins_a_crlf_split_between_reads(tmp_path, monkeypatch):
    from daepos import csvio

    path = tmp_path / "s.csv"
    path.write_bytes(b"point_id,x,y,a\r\np1,0,0,-50\r\np2,1,0,-60\r\n")
    monkeypatch.setattr(csvio, "_CHUNK", 15)  # the first read ends between "\r" and "\n"
    assert [s.point_id for s in parse_signatures(path)] == ["p1", "p2"]


@st.composite
def tied_surveys(draw):
    """Surveys of one to three APs whose readings come from a few levels, so means tie."""
    aps = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3, unique=True))
    level = st.one_of(st.sampled_from([-50.0, -60.0, -70.25, -0.0, 0.0, -120.0]), st.floats(RSSI_MIN, RSSI_MAX))
    readings = st.dictionaries(st.sampled_from(aps), level, min_size=1)
    signature = st.builds(RadioSignature, st.just("p"), st.builds(Position2D, st.just(0.0), st.just(1.0)), readings)
    return draw(st.lists(signature, min_size=1, max_size=30))


@settings(max_examples=300, deadline=None)
@given(sigs=tied_surveys(), m=st.integers(1, 4))
def test_registry_matches_the_per_signature_oracle(sigs, m):
    expected = _old_build_registry(sigs, m)
    assert build_registry(sigs, m) == expected
    buf = io.StringIO()
    write_signatures(sigs, buf)
    assert build_registry(parse_signatures(io.StringIO(buf.getvalue())), m) == expected


def test_parse_peak_memory_is_a_small_multiple_of_the_rssi_array(tmp_path):
    rng = np.random.default_rng(3)
    n, width = 2400, 64
    rssi = np.round(rng.uniform(-100, -30, (n, width)), 2)
    rssi[rng.random((n, width)) < 0.4] = np.nan
    rssi[:, 0] = -55.0
    path = tmp_path / "survey.csv"
    table = SignatureTable(tuple(f"p{i}" for i in range(n)), rng.uniform(0, 80, (n, 2)),
                           tuple(f"ap{j:02d}" for j in range(width)), rssi)
    write_signatures(table, path)
    tracemalloc.start()
    try:
        parsed = parse_signatures(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(parsed) == n
    assert peak <= 4 * n * width * 8
