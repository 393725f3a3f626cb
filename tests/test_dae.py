import io
import math
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from daepos import (
    ApRegistry,
    ConfigError,
    ContractError,
    DaeDataset,
    DatasetError,
    GridSpec,
    Position2D,
    RadioMap,
    SynthWorld,
    build_dae_dataset,
    build_holdout_dataset,
    build_registry,
    generate_grid_dataset,
    localize,
    make_fold_plan,
    perimeter_aps,
    read_dae_dataset,
    true_error,
    write_dae_dataset,
)
from csv_oracle import TEXT_CELLS, Trickle, csv_text, outcome, whole
from daepos.csvio import csv_rows
from daepos.dae import LABEL_MAX, XY_COLUMNS, FoldPlan
from daepos.errors import DaeposError, FormatError, RowError
from daepos.signatures import COORD_MAX


# --- true error ---------------------------------------------------------------


def test_true_error_coincident_points():
    assert true_error(Position2D(2.0, 3.0), Position2D(2.0, 3.0)) == 0.0


def test_true_error_hand_computed_345():
    assert true_error(Position2D(0.0, 0.0), Position2D(3.0, 4.0)) == pytest.approx(5.0)


def test_true_error_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a = Position2D(float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10)))
        b = Position2D(float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10)))
        assert true_error(a, b) == true_error(b, a)


# --- fold plans ---------------------------------------------------------------


def test_fold_plan_balanced_partition():
    plan = make_fold_plan(6, 3, seed=0)
    sizes = [plan.assignment.count(f) for f in range(3)]
    assert sizes == [2, 2, 2]
    assert len(plan.assignment) == sum(sizes) == 6  # each signature is in exactly one of the folds


def test_fold_plan_same_seed_same_assignment():
    assert make_fold_plan(50, 5, seed=9) == make_fold_plan(50, 5, seed=9)


def test_fold_plan_by_point_never_splits_a_point():
    point_ids = [f"pt{i}" for i in range(4) for _ in range(3)]  # 4 points x 3 scans
    plan = make_fold_plan(12, 2, seed=1, grouping="by_point", point_ids=point_ids)
    fold_of_point = {}
    for pid, fold in zip(point_ids, plan.assignment):
        fold_of_point.setdefault(pid, set()).add(fold)
    assert all(len(folds) == 1 for folds in fold_of_point.values())


def test_fold_plan_by_signature_is_by_point_with_unique_ids():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(2, 40))
        folds = int(rng.integers(2, n + 1))
        seed = int(rng.integers(0, 10_000))
        ids = [f"s{i}" for i in rng.permutation(n)]
        by_point = make_fold_plan(n, folds, seed, grouping="by_point", point_ids=ids)
        assert make_fold_plan(n, folds, seed) == by_point


def test_fold_plan_too_few_folds_is_config_error():
    with pytest.raises(ConfigError):
        make_fold_plan(10, 1, seed=0)


def test_fold_plan_more_folds_than_signatures_is_config_error():
    with pytest.raises(ConfigError):
        make_fold_plan(3, 4, seed=0)
    with pytest.raises(ConfigError):
        make_fold_plan(6, 3, seed=0, grouping="by_point", point_ids=["a"] * 3 + ["b"] * 3)


def test_fold_plan_by_point_requires_point_ids():
    with pytest.raises(ContractError):
        make_fold_plan(6, 2, seed=0, grouping="by_point")


def test_fold_plan_properties_random_sweep():
    rng = np.random.default_rng(77)
    for _ in range(60):
        n_points = int(rng.integers(4, 30))
        scans = int(rng.integers(1, 4))
        n = n_points * scans
        folds = int(rng.integers(2, min(n_points, 8) + 1))
        grouping = "by_point" if rng.random() < 0.5 else "by_signature"
        point_ids = [f"pt{i}" for i in range(n_points) for _ in range(scans)]
        plan = make_fold_plan(n, folds, seed=int(rng.integers(0, 1000)), grouping=grouping, point_ids=point_ids)
        assignment = np.asarray(plan.assignment)
        assert len(assignment) == n
        assert set(assignment) == set(range(folds))  # exhaustive, disjoint by construction
        if grouping == "by_signature":
            sizes = np.bincount(assignment, minlength=folds)
        else:
            fold_of_point = {pid: fold for pid, fold in zip(point_ids, assignment)}
            sizes = np.bincount(list(fold_of_point.values()), minlength=folds)
        assert sizes.max() - sizes.min() <= 1


# --- dataset construction -------------------------------------------------------


def test_dataset_one_record_per_signature(survey, survey_dataset_plain):
    assert len(survey_dataset_plain) == len(survey)
    labels = survey_dataset_plain.labels()
    assert np.isfinite(labels).all() and (labels >= 0).all()


def test_dataset_xy_adds_two_feature_columns(survey_registry, survey_dataset_plain, survey_dataset_xy):
    width = len(survey_registry)
    assert survey_dataset_plain.features().shape[1] == width
    assert survey_dataset_xy.features().shape[1] == width + 2


def test_dataset_labels_match_independent_leave_fold_out_recompute(
    survey, survey_registry, survey_plan, survey_dataset_plain
):
    """Rebuild each fold's map from scratch and re-localize every signature.

    Records are ordered by (fold, original signature index), so each one can
    be matched to its source signature and its label recomputed against a
    map that provably excludes that signature.
    """
    assignment = np.asarray(survey_plan.assignment)
    record_iter = iter(survey_dataset_plain.records)
    checked = 0
    for fold in range(survey_plan.n_folds):
        members = [i for i in range(len(survey)) if assignment[i] == fold]
        map_signatures = [survey[i] for i in range(len(survey)) if assignment[i] != fold]
        radio_map = RadioMap.from_signatures(map_signatures, survey_registry)
        for i in members:
            rec = next(record_iter)
            assert rec.fold == fold
            assert rec.point_id == survey[i].point_id
            est = localize(rec.features[: len(survey_registry)], radio_map, k=4)
            assert rec.label == true_error(est.position, survey[i].reference)
            checked += 1
    assert checked == len(survey)


def test_dataset_no_leakage_under_either_grouping(survey, survey_registry, survey_plan):
    # by_signature: sibling scans of the same point may stay in the map, so
    # k=1 labels can legitimately hit 0; self-inclusion would make ALL zero
    ds = build_dae_dataset(survey, survey_registry, survey_plan, k=1)
    assert np.mean(ds.labels() > 0) > 0.1
    # by_point: every scan of the point is excluded, so no map entry shares
    # the reference and k=1 labels are at least one grid spacing away
    plan = make_fold_plan(
        len(survey), 5, seed=3, grouping="by_point", point_ids=[s.point_id for s in survey]
    )
    ds_point = build_dae_dataset(survey, survey_registry, plan, k=1)
    assert np.all(ds_point.labels() >= 2.0)


def test_dataset_noise_free_exact_match_labels_zero():
    world = SynthWorld(
        ap_positions=perimeter_aps(6, 8.0, 8.0), shadowing_sigma=0.0, seed=5
    )
    sigs = generate_grid_dataset(world, GridSpec(nx=5, ny=5, spacing=2.0), scans_per_point=3)
    registry = build_registry(sigs, 35)
    # scans are point-major: i % 3 puts one sibling scan of every point in
    # each fold, so an identical vector is always present in the map
    plan = FoldPlan(n_folds=3, assignment=tuple(i % 3 for i in range(len(sigs))))
    ds = build_dae_dataset(sigs, registry, plan, k=1)
    assert np.all(ds.labels() == 0.0)


def test_dataset_deterministic_bytes(survey, survey_registry, survey_plan):
    def build_bytes():
        ds = build_dae_dataset(survey, survey_registry, survey_plan, k=4, variant="xy")
        buf = io.StringIO()
        write_dae_dataset(ds, buf)
        return buf.getvalue()

    assert build_bytes() == build_bytes()


def test_dataset_fold_complement_smaller_than_k_names_fold():
    sigs = generate_grid_dataset(
        SynthWorld(ap_positions=perimeter_aps(4, 4.0, 4.0), shadowing_sigma=0.0, seed=1),
        GridSpec(nx=2, ny=2, spacing=2.0),
        scans_per_point=1,
    )
    registry = build_registry(sigs, 4)
    plan = make_fold_plan(4, 2, seed=0)
    with pytest.raises(DatasetError, match="fold"):
        build_dae_dataset(sigs, registry, plan, k=3)


def test_dataset_plan_length_mismatch_is_contract_error(survey, survey_registry):
    plan = make_fold_plan(10, 2, seed=0)
    with pytest.raises(ContractError):
        build_dae_dataset(survey, survey_registry, plan)


def test_holdout_dataset_marks_external_records(survey, survey_registry):
    world = SynthWorld(ap_positions=perimeter_aps(9, 12.0, 8.0), shadowing_sigma=2.5, seed=99)
    external = generate_grid_dataset(world, GridSpec(nx=3, ny=3, spacing=3.0), scans_per_point=2)
    ds = build_holdout_dataset(external, survey, survey_registry, k=4, variant="xy")
    assert len(ds) == len(external)
    assert all(rec.fold == -1 for rec in ds.records)


def test_dataset_columns_validated_and_read_only():
    registry = ApRegistry(aps=("a", "b"), availability=(1, 1))
    X, y = np.array([[-50.0, -60.0], [-70.0, -80.0]]), np.array([0.5, 1.5])
    ds = DaeDataset(X=X, y=y, point_ids=("p", "q"), folds=[0, 1], variant="plain", registry=registry)
    X[0, 0] = y[0] = 9.0  # the dataset keeps its own copies
    assert ds.X[0, 0] == -50.0 and ds.y[0] == 0.5
    with pytest.raises(ValueError):
        ds.X[0, 0] = 1.0
    features, label, point_id, fold = ds.records[1]
    assert features.tolist() == [-70.0, -80.0] and (label, point_id, fold) == (1.5, "q", 1)
    for bad in (
        {"variant": "xy"},  # two columns short of the xy width
        {"y": [0.5]},
        {"folds": [0, 1, 2]},
        {"point_ids": ("p",)},
        {"y": [0.5, -0.1]},
        {"y": [0.5, np.nan]},
        {"y": [0.5, np.nextafter(LABEL_MAX, np.inf)]},
        {"X": [[-50.0, -60.0], [np.nan, -80.0]]},
        {"X": [[-50.0, -60.0], [-np.nextafter(COORD_MAX, np.inf), -80.0]]},
        {"X": [[-50.0, 1.7e308], [-70.0, -80.0]]},
    ):
        columns = {"X": X, "y": [0.5, 1.5], "point_ids": ("p", "q"), "folds": [0, 1], "variant": "plain"}
        with pytest.raises(ContractError):
            DaeDataset(**{**columns, **bad}, registry=registry)
    # the bounds themselves are inside
    DaeDataset(X=[[-COORD_MAX, COORD_MAX]], y=[LABEL_MAX], point_ids=("p",), folds=[0], variant="plain",
               registry=registry)


# --- dataset CSV round-trip -----------------------------------------------------


def test_dataset_csv_roundtrip(survey_dataset_xy):
    buf = io.StringIO()
    write_dae_dataset(survey_dataset_xy, buf, comment="config_hash=x seed=0")
    back = read_dae_dataset(io.StringIO(buf.getvalue()))
    assert back.variant == "xy"
    assert back.registry.aps == survey_dataset_xy.registry.aps
    assert len(back) == len(survey_dataset_xy)
    assert np.array_equal(back.features(), survey_dataset_xy.features())
    assert np.array_equal(back.labels(), survey_dataset_xy.labels())
    assert [r.fold for r in back.records] == [r.fold for r in survey_dataset_xy.records]
    assert [r.point_id for r in back.records] == [r.point_id for r in survey_dataset_xy.records]


# point ids: CSV quoting, spaces and line-break characters drawn often
_ID_CHARS = st.sampled_from(' ,"#\r\n\x1c\x85\u2028') | st.characters(whitelist_categories=("L", "N", "P", "Zs"))


@st.composite
def datasets(draw):
    ap_id = st.text("0123456789abcdef:", min_size=1, max_size=6)
    aps = draw(st.lists(ap_id, min_size=1, max_size=4, unique=True))
    variant = draw(st.sampled_from(["plain", "xy"]))
    n = draw(st.integers(1, 6))
    width = len(aps) + (2 if variant == "xy" else 0)
    return DaeDataset(
        X=draw(arrays(float, (n, width), elements=st.floats(-COORD_MAX, COORD_MAX))),
        y=draw(arrays(float, n, elements=st.floats(0.0, LABEL_MAX))),
        point_ids=tuple(draw(st.lists(st.text(_ID_CHARS, max_size=8) | TEXT_CELLS, min_size=n, max_size=n))),
        folds=draw(st.lists(st.integers(-1, 9), min_size=n, max_size=n)),
        variant=variant,
        registry=ApRegistry(aps=tuple(aps), availability=tuple(0 for _ in aps)),
    )


@settings(max_examples=200, deadline=None)
@given(ds=datasets(), comment=st.sampled_from([None, "config_hash=x seed=0"]))
def test_dataset_csv_roundtrip_property(ds, comment):
    buf = io.StringIO()
    write_dae_dataset(ds, buf, comment=comment)
    back = read_dae_dataset(io.StringIO(buf.getvalue()))
    assert back.variant == ds.variant
    assert back.registry.aps == ds.registry.aps
    assert np.array_equal(back.X, ds.X) and np.array_equal(back.y, ds.y)
    assert back.point_ids == ds.point_ids
    assert back.folds.tolist() == ds.folds.tolist()


def _dataset_rows(dataset):
    """The rows the dataset writer wrote through ``csv.writer`` before it wrote each row as one string."""
    yield ["point_id", "fold", *dataset.feature_names(), "delta_pos"]
    columns = zip(dataset.point_ids, dataset.folds.tolist(), dataset.X, dataset.y.tolist())
    for point_id, fold, row, label in columns:
        yield [point_id, fold, *map(repr, row.tolist()), repr(label)]


@settings(max_examples=200, deadline=None)
@given(ds=datasets(), comment=st.sampled_from([None, "config_hash=x seed=0"]))
def test_dataset_csv_is_the_csv_writers_bytes(ds, comment):
    buf = io.StringIO()
    write_dae_dataset(ds, buf, comment=comment)
    assert buf.getvalue() == csv_text(_dataset_rows(ds), comment)


def test_dataset_csv_is_written_a_line_at_a_time(tmp_path):
    # 6,000 rows of 37 cells, each id its own: about 4 MB of text
    n, aps = 6000, tuple(f"ap{i:02d}" for i in range(35))
    rng = np.random.default_rng(3)
    ds = DaeDataset(
        X=np.hstack([rng.uniform(-100, -30, size=(n, len(aps))), rng.uniform(0, 80, size=(n, 2))]),
        y=rng.uniform(0, 10, size=n),
        point_ids=tuple(f"pt{i:05d}" for i in range(n)),
        folds=rng.integers(0, 5, size=n),
        variant="xy",
        registry=ApRegistry(aps=aps, availability=tuple(0 for _ in aps)),
    )
    path = tmp_path / "dataset.csv"
    tracemalloc.start()
    try:
        write_dae_dataset(ds, path, comment="config_hash=x seed=0")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 4 * 2**20
    assert peak < 2**20


# --- the dataset reader against the reader it replaced ----------------------------


def _row_checked_read(source):
    """The dataset reader before it shared the signature reader's row loop: every row checked as it is read."""
    with csv_rows(source) as rows:
        header = next(rows, None)
        if header is None:
            raise DatasetError("empty dataset file")
        header = [h.strip() for h in header]
        if len(header) < 4 or header[0] != "point_id" or header[1] != "fold" or header[-1] != "delta_pos":
            raise FormatError("dataset header must be 'point_id,fold,<features...>,delta_pos'")
        names = header[2:-1]
        if not all(names) or len(set(names)) != len(names):
            raise FormatError("dataset feature columns must be non-empty and unique")
        variant = "xy" if tuple(names[-2:]) == XY_COLUMNS else "plain"
        ap_ids = names[:-2] if variant == "xy" else names
        if not ap_ids:
            raise FormatError("dataset has no RSSI feature columns")
        registry = ApRegistry(aps=tuple(ap_ids), availability=tuple(0 for _ in ap_ids))
        ids, folds, values = [], [], array("d")
        for num, row in enumerate(rows, start=1):
            if len(row) != len(header):
                raise RowError(num, f"expected {len(header)} cells, got {len(row)}")
            try:
                fold = int(row[1])
                cells = [float(c) for c in row[2:]]
            except ValueError as exc:
                raise RowError(num, str(exc)) from None
            if not -(2**63) <= fold < 2**63:
                raise RowError(num, f"fold {row[1].strip()} does not fit a 64-bit integer")
            if not all(map(math.isfinite, cells)):
                raise RowError(num, "non-finite feature or label cell")
            if max(map(abs, cells[:-1])) > COORD_MAX:
                raise RowError(num, f"feature cells must lie within +-{COORD_MAX:g}")
            if not 0.0 <= cells[-1] <= LABEL_MAX:
                raise RowError(num, f"delta_pos must lie in [0, {LABEL_MAX:g}], got {cells[-1]}")
            ids.append(row[0])
            folds.append(fold)
            values.extend(cells)
    if not ids:
        raise DatasetError("dataset file has a header but no records")
    values = np.frombuffer(values).reshape(len(ids), -1)
    return DaeDataset(values[:, :-1], values[:, -1], tuple(ids), folds, variant, registry)


def _dataset_bits(read):
    """A read's dataset as bits, or its error's type, message and row."""
    def bits():
        ds = read()
        return ds.variant, ds.registry.aps, ds.point_ids, ds.folds.tolist(), ds.X.tobytes(), ds.y.tobytes()

    return outcome(bits)


# feature cells, and corrupt ones: non-finite, beyond COORD_MAX, unparseable
_FEATURE_CELLS = ["-50.5", "0", "-0.0", "5e-324", " 1e9 ", "-1e9", "1.5e2"]
_BAD_FEATURES = ["nan", "-inf", "1e400", "1000000000.0001", "-2e9", "x", "", "0x10"]
_LABEL_CELLS = ["0", "-0.0", "0.25", "3e9", " 2 "]
_BAD_LABELS = ["-0.5", "3000000000.0001", "inf", "nan", "", "1e999"]
_FOLD_CELLS = ["0", "-1", " 3 ", "9223372036854775807", "-9223372036854775808", "+2", "1_0"]
_BAD_FOLDS = ["9223372036854775808", "-9223372036854775809", "1.0", "", "x", "1e3"]


@st.composite
def dataset_files(draw):
    """Dataset files, as UTF-8 bytes, with bad cells, short and long rows, and bytes that are not UTF-8."""
    aps = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3, unique=True))
    names = aps + (list(XY_COLUMNS) if draw(st.booleans()) else [])
    lines = [",".join(["point_id", "fold", *names, "delta_pos"])]
    for _ in range(draw(st.integers(0, 6))):
        cells = [draw(st.sampled_from(["p1", "", '"q,1"', " p "])), draw(st.sampled_from(_FOLD_CELLS))]
        cells += [draw(st.sampled_from(_FEATURE_CELLS)) for _ in names]
        cells.append(draw(st.sampled_from(_LABEL_CELLS)))
        shape = draw(st.sampled_from(["row"] * 12 + ["short", "long", "blank", "fold", "feature", "label"]))
        if shape == "short":
            cells.pop()
        elif shape == "long":
            cells.append("0")
        elif shape == "fold":
            cells[1] = draw(st.sampled_from(_BAD_FOLDS))
        elif shape == "feature":
            cells[draw(st.integers(2, len(cells) - 2))] = draw(st.sampled_from(_BAD_FEATURES))
        elif shape == "label":
            cells[-1] = draw(st.sampled_from(_BAD_LABELS))
        lines.append("" if shape == "blank" else ",".join(cells))
    comments = draw(st.lists(st.just("# config_hash=x seed=0"), max_size=1))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    data = "".join(line + end for line in comments + lines).encode()
    return data + draw(st.sampled_from([b"", b"", b"\xff\xfe", b"p9,0,\xc3"]))


@settings(max_examples=200, deadline=None)
@given(data=dataset_files(), step=st.integers(1, 9))
def test_read_matches_the_row_checked_oracle(data, step):
    expected = _dataset_bits(lambda: _row_checked_read(whole(data)))
    assert _dataset_bits(lambda: read_dae_dataset(whole(data))) == expected
    # short reads reach text that is not UTF-8 only after the rows before it
    trickled = _dataset_bits(lambda: _row_checked_read(Trickle(data, step)))
    assert _dataset_bits(lambda: read_dae_dataset(Trickle(data, step))) == trickled


@pytest.mark.parametrize(
    "later, message",
    [(b"p3,0,-50\n", "expected 4 cells, got 3"), (b"p3,x,-50,1.0\n", "invalid literal"),
     (b"p3,0,-50,1.0\n\xff\n", "not UTF-8")],
    ids=["short-row", "non-numeric-fold", "not-utf8"],
)
def test_a_bad_label_comes_before_a_later_error(later, message):
    data = b"point_id,fold,a,delta_pos\np1,0,-50,1.0\np2,0,-50,-1.0\n" + later
    expected = (RowError.__name__, "row 2: delta_pos must lie in [0, 3e+09], got -1.0", 2)
    assert _dataset_bits(lambda: read_dae_dataset(Trickle(data, 5))) == expected
    assert _dataset_bits(lambda: _row_checked_read(Trickle(data, 5))) == expected
    with pytest.raises(DaeposError, match=message):  # the later error alone, with no bad row before it
        read_dae_dataset(Trickle(data.replace(b"-1.0", b"1.0"), 5))
