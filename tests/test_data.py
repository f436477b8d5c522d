import functools
import math
from pathlib import Path

import numpy as np
import pytest

from ugckit import joints, mechanics
from ugckit.data import (
    CSV_COLUMNS,
    Direction,
    FamilyKind,
    JointDataset,
    JointFamily,
    MeasurementSample,
    average_runs,
    parse_measurements,
)
from ugckit.errors import (
    BadNumberError,
    DesignSpecError,
    InputError,
    MissingColumnError,
    MissingThicknessError,
    OutOfRangeError,
)

from conftest import (
    assert_same_rows,
    curve_bench_csv,
    oracle_average,
    oracle_parse,
    square_bench_csv,
)

HEADER = ",".join(CSV_COLUMNS)


def test_parse_single_curve_row():
    ds = parse_measurements(HEADER + "\ncurve,0.4,90,forward,2.1,165,r1\n")
    assert len(ds) == 1
    s = ds.samples[0]
    assert s.family == JointFamily(FamilyKind.CURVE, 0.4)
    assert s.deformation_angle == 90.0
    assert s.direction is Direction.FORWARD
    assert s.force == 2.1
    assert s.return_angle == 165.0
    assert s.run_id == "r1"


def test_parse_header_only_is_empty_file():
    with pytest.raises(InputError, match="^CSV has a header but no data rows$"):
        parse_measurements(HEADER + "\n")


def test_parse_no_content_is_empty_file():
    with pytest.raises(InputError, match="^no CSV content$"):
        parse_measurements("")


def test_dataset_needs_a_sample():
    with pytest.raises(InputError, match="^dataset has no samples$"):
        JointDataset(*[()] * 7)


def test_parse_missing_column():
    broken = HEADER.replace("force_n,", "")
    with pytest.raises(MissingColumnError) as err:
        parse_measurements(broken + "\nstraight,,90,forward,160,r1\n")
    assert err.value.column == "force_n"


def test_parse_angle_out_of_range_carries_row():
    text = HEADER + "\nstraight,,90,forward,1.0,170,r1\nstraight,,200,forward,1.0,170,r1\n"
    with pytest.raises(OutOfRangeError) as err:
        parse_measurements(text)
    assert err.value.row == 3
    assert err.value.field == "deformation_angle_deg"


@pytest.mark.parametrize(
    "row,errtype,fieldname",
    [
        ("straight,,90,forward,-1.0,170,r1", OutOfRangeError, "force_n"),
        ("straight,,90,forward,1.0,190,r1", OutOfRangeError, "return_angle_deg"),
        ("straight,0.4,90,forward,1.0,170,r1", OutOfRangeError, "thickness_mm"),
        ("curve,-0.4,90,forward,1.0,170,r1", OutOfRangeError, "thickness_mm"),
        ("straight,,ninety,forward,1.0,170,r1", BadNumberError, "deformation_angle_deg"),
        ("straight,,90,forward,much,170,r1", BadNumberError, "force_n"),
        ("mystery,,90,forward,1.0,170,r1", BadNumberError, "family"),
        ("straight,,90,sideways,1.0,170,r1", BadNumberError, "direction"),
    ],
)
def test_parse_rejects_bad_rows(row, errtype, fieldname):
    with pytest.raises(errtype) as err:
        parse_measurements(HEADER + "\n" + row + "\n")
    assert err.value.field == fieldname


@pytest.mark.parametrize("token", ["inf", "nan", "-inf", "1e400"])
@pytest.mark.parametrize(
    "fieldname", ["thickness_mm", "deformation_angle_deg", "force_n", "return_angle_deg"]
)
def test_parse_rejects_non_finite_numbers(fieldname, token):
    cells = dict(zip(CSV_COLUMNS, ["curve", "0.4", "90", "forward", "2.1", "165", "r1"]))
    cells[fieldname] = token
    with pytest.raises(BadNumberError) as err:
        parse_measurements(HEADER + "\n" + ",".join(cells.values()) + "\n")
    assert err.value.field == fieldname


@pytest.mark.parametrize(
    "row",
    [
        pytest.param(",,,,,,,X", id="blank-cells-plus-one"),
        pytest.param("square_sym,,90,forward,2.0,172,r1,extra", id="good-row-plus-one"),
    ],
)
def test_parse_rejects_rows_wider_than_header(row):
    with pytest.raises(InputError, match="row 3: 8 cells, header has 7"):
        parse_measurements(HEADER + "\nsquare_sym,,90,forward,2.0,172,r1\n" + row + "\n")


def test_parse_curve_without_thickness_is_missing_thickness():
    with pytest.raises(MissingThicknessError):
        parse_measurements(HEADER + "\ncurve,,90,forward,1.0,170,r1\n")


def test_average_two_runs_takes_mean():
    text = (
        HEADER
        + "\nsquare_sym,,90,forward,2.0,170,r1\nsquare_sym,,90,forward,2.2,172,r2\n"
    )
    out = average_runs(parse_measurements(text), angle_bin=5.0)
    assert len(out) == 1
    s = out.samples[0]
    assert s.force == pytest.approx(2.1, abs=1e-12)
    assert s.return_angle == pytest.approx(171.0, abs=1e-12)
    assert s.deformation_angle == 90.0


def test_average_singleton_group_unchanged():
    text = HEADER + "\nsquare_sym,,90,forward,2.0,170,r1\n"
    ds = parse_measurements(text)
    out = average_runs(ds, angle_bin=5.0)
    assert out.samples == ds.samples


def test_average_bins_nearby_angles():
    # hand-computed: rows at 89 and 91 share bin round(89/5)=round(91/5)=18,
    # rows at 120 share bin 24; means are (90, 2.1, 171) and (120, 3.1, 149)
    text = (
        HEADER
        + "\nsquare_sym,,89,forward,2.0,170,r1"
        + "\nsquare_sym,,91,forward,2.2,172,r2"
        + "\nsquare_sym,,120,forward,3.0,150,r1"
        + "\nsquare_sym,,120,forward,3.2,148,r2\n"
    )
    out = average_runs(parse_measurements(text), angle_bin=5.0)
    assert len(out) == 2
    first, second = out.samples
    assert first.deformation_angle == pytest.approx(90.0, abs=1e-12)
    assert first.force == pytest.approx(2.1, abs=1e-12)
    assert first.return_angle == pytest.approx(171.0, abs=1e-12)
    assert second.deformation_angle == pytest.approx(120.0, abs=1e-12)
    assert second.force == pytest.approx(3.1, abs=1e-12)
    assert second.return_angle == pytest.approx(149.0, abs=1e-12)


def test_average_is_idempotent(square_dataset):
    once = average_runs(square_dataset, angle_bin=5.0)
    twice = average_runs(once, angle_bin=5.0)
    assert twice.samples == once.samples


def test_average_rejects_nonpositive_bin(square_dataset):
    with pytest.raises(ValueError):
        average_runs(square_dataset, angle_bin=0.0)


@pytest.mark.parametrize(
    "width, problem",
    [(float("inf"), ": must be a finite number$"), (float("nan"), ": must be a finite number$"),
     (1e308, " must be a finite number in"), (180.5, " must be a finite number in"),
     (-1.0, " must be a finite number in")],
)
def test_average_rejects_unusable_bin_naming_it(square_dataset, width, problem):
    # inf used to merge every angle into one sample, nan to fail in round()
    with pytest.raises(ValueError, match=f"^angle_bin{problem}"):
        average_runs(square_dataset, angle_bin=width)


def test_joint_family_thickness_rules():
    with pytest.raises(MissingThicknessError):
        JointFamily(FamilyKind.CURVE)
    with pytest.raises(ValueError):
        JointFamily(FamilyKind.STRAIGHT, thickness=0.4)
    with pytest.raises(ValueError):
        JointFamily(FamilyKind.CURVE, thickness=-1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^thickness: must be a finite number$"):
            JointFamily(FamilyKind.CURVE, thickness=bad)
    assert FamilyKind.CURVE.input_dim == 2
    assert FamilyKind.SQUARE_SYM.input_dim == 1


# Thickness cases every boundary must reject: (family token, thickness).
BAD_THICKNESS = [
    ("curve", 0.0),
    ("curve", -0.4),
    ("square_sym", 0.8),
    ("curve", None),
]


def _thickness_through(boundary, family, thickness):
    if boundary == "constructor":
        JointFamily(FamilyKind(family), thickness)
    elif boundary == "csv":
        cell = "" if thickness is None else repr(thickness)
        parse_measurements(f"{HEADER}\n{family},{cell},90,forward,1.0,170,r1\n")
    elif boundary == "query":
        joints.predict_many(joints.builtin_model(FamilyKind(family)), [90.0], thickness)
    else:
        mechanics.spec_from_json_dict({
            "outer_radius_mm": 100.0,
            "n_sections": 5,
            "joints_per_ring": 40,
            "target_ratio": 0.85,
            "ring_layers": 2,
            "actuator": {"rated_torque_nm": 0.08, "spindle_radius_mm": 3.0},
            "joint": {"family": family, "thickness_mm": thickness},
        })


@pytest.mark.parametrize(
    "family, thickness", BAD_THICKNESS, ids=["0", "-0.4", "non-curve", "none"]
)
@pytest.mark.parametrize("boundary", ["constructor", "csv", "spec", "query"])
def test_every_boundary_applies_the_thickness_rule(boundary, family, thickness):
    with pytest.raises((ValueError, InputError)) as err:
        _thickness_through(boundary, family, thickness)
    if boundary == "query":
        assert isinstance(err.value, InputError)
    if isinstance(err.value, DesignSpecError):
        assert len(err.value.problems) == 1
    assert "thickness" in str(err.value)


def _sample(**overrides):
    values = {"deformation_angle": 90.0, "force": 1.0, "return_angle": 170.0, **overrides}
    return MeasurementSample(
        JointFamily(FamilyKind.STRAIGHT), direction=Direction.FORWARD, run_id="r1", **values
    )


# (attribute, CSV column, out-of-range value) for each range rule of a sample
SAMPLE_RANGES = [
    ("deformation_angle", "deformation_angle_deg", 200.0),
    ("force", "force_n", -1.0),
    ("return_angle", "return_angle_deg", 190.0),
]


@pytest.mark.parametrize(
    "attr, column, value", SAMPLE_RANGES, ids=[c for _, c, _ in SAMPLE_RANGES]
)
def test_constructor_and_reader_share_the_range_rules(attr, column, value):
    with pytest.raises(ValueError, match=f"^{attr} {value:g} "):
        _sample(**{attr: value})
    cells = dict(zip(CSV_COLUMNS, ["straight", "", "90", "forward", "1.0", "170", "r1"]))
    cells[column] = repr(value)
    with pytest.raises(OutOfRangeError) as err:
        parse_measurements(HEADER + "\n" + ",".join(cells.values()) + "\n")
    assert (err.value.row, err.value.field) == (2, column)


@pytest.mark.parametrize("attr", [a for a, _, _ in SAMPLE_RANGES])
def test_constructor_rejects_nan(attr):
    with pytest.raises(ValueError, match=f"^{attr}: must be a finite number$"):
        _sample(**{attr: float("nan")})


@pytest.mark.parametrize("attr", [a for a, _, _ in SAMPLE_RANGES])
def test_constructor_rejects_inf(attr):
    # force had an open upper bound and took inf until the finite rule joined its row
    with pytest.raises(ValueError, match=f"^{attr}: must be a finite number$"):
        _sample(**{attr: float("inf")})


def test_parse_reads_columns_by_name_and_strips_cells():
    text = (
        "run_id,force_n,family,direction,thickness_mm,return_angle_deg,"
        "deformation_angle_deg,note\n"
        " r1 , 2.1 , curve ,forward, 0.4 ,165, 90 ,x\n"
    )
    (s,) = parse_measurements(text).samples
    assert s == MeasurementSample(JointFamily(FamilyKind.CURVE, 0.4), 90.0, Direction.FORWARD,
                                  2.1, 165.0, "r1")


def test_parse_short_row_reports_first_empty_cell():
    with pytest.raises(BadNumberError) as err:
        parse_measurements(HEADER + "\nstraight,,90\n")
    assert (err.value.row, err.value.field) == (2, "direction")


@pytest.mark.parametrize("bad", [True, np.True_])
@pytest.mark.parametrize("kind", [FamilyKind.CURVE, FamilyKind.STRAIGHT])
def test_joint_family_rejects_a_bool_thickness(kind, bad):
    # float(True) is 1.0: a bool would pass for a thickness of 1 mm
    with pytest.raises(ValueError, match="^thickness: expected float$"):
        JointFamily(kind, bad)


@pytest.mark.parametrize("bad", [True, False, np.True_])
@pytest.mark.parametrize("attr", [a for a, _, _ in SAMPLE_RANGES])
def test_constructor_rejects_bools(attr, bad):
    with pytest.raises(ValueError, match=f"^{attr}: expected float$"):
        _sample(**{attr: bad})


# -- columns against the row-by-row oracle ---------------------------------------

DEMO_DATA = Path(__file__).resolve().parents[1] / "demos" / "data"

# groups of one to four runs, both directions, three families and two curve
# thicknesses, rows out of key order; the lone square_sym forward row at -0.0
# deg is a group of one and keeps its sign, while the curve pair at -0.0 and
# 0.0 averages to 0.0; the 1e16, 1, 1 forces sum to 1e16 only left to right
EDGE_CSV = HEADER + """
square_sym,,90,reverse,2.0,170,a
curve,0.8,60,forward,1.5,175,b
square_sym,,-0.0,forward,1.0,180,solo
square_sym,,91,reverse,2.2,171,c
straight,,30,forward,1e16,178,f
curve,0.8,61,forward,1.6,174,d
curve,0.4,60,forward,1.1,176,k
straight,,31,forward,1.0,177,g
curve,0.8,59,forward,1.4,176,e
straight,,29.5,forward,1.0,179,h
curve,0.8,-0.0,reverse,0.1,180,m
straight,,30.5,forward,0.9,178.5,i
square_sym,,90,forward,2.1,172,j
curve,0.8,0.0,reverse,0.2,180,n
straight,,30,reverse,0.7,178,p
"""


def _bench_like(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "square":
        return square_bench_csv(rng, angles=[float(a) for a in np.linspace(10.0, 170.0, 340)])
    return curve_bench_csv(rng, angles=[float(a) for a in np.linspace(30.0, 150.0, 81)])


CSV_CASES = {
    "demo-square": lambda: (DEMO_DATA / "square_sym_bench.csv").read_text(),
    "demo-curve": lambda: (DEMO_DATA / "curve_bench.csv").read_text(),
    "edge": lambda: EDGE_CSV,
    **{f"{kind}-seed{seed}": functools.partial(_bench_like, kind, seed)
       for kind in ("square", "curve") for seed in range(1, 6)},
}


@pytest.mark.parametrize("case", CSV_CASES)
def test_columns_equal_the_row_by_row_oracle(case):
    text = CSV_CASES[case]()
    ds = parse_measurements(text)
    samples = oracle_parse(text)
    assert_same_rows(ds, samples)
    for angle_bin in (0.25, 1.0, 5.0, 180.0):
        assert_same_rows(average_runs(ds, angle_bin), oracle_average(samples, angle_bin))


def test_average_edge_fixture_by_hand():
    out = average_runs(parse_measurements(EDGE_CSV), angle_bin=5.0)
    rows = {(s.family.kind.value, s.family.thickness, s.direction.value, s.run_id): s
            for s in out.samples}
    solo = rows["square_sym", None, "forward", "solo"]
    assert math.copysign(1.0, solo.deformation_angle) == -1.0
    assert rows["curve", 0.8, "reverse", "avg-of-2"].deformation_angle == 0.0
    assert rows["curve", 0.8, "reverse", "avg-of-2"].force == (0.1 + 0.2) / 2
    assert rows["straight", None, "forward", "avg-of-4"].force == 1e16 / 4  # 1e16 + 1 == 1e16
    assert rows["curve", 0.8, "forward", "avg-of-3"].deformation_angle == 60.0
    assert rows["square_sym", None, "reverse", "avg-of-2"].force == 2.1
    assert [s.run_id for s in out.samples] == [
        "k", "avg-of-3", "avg-of-2", "solo", "j", "avg-of-2", "avg-of-4", "p",
    ]


@pytest.mark.parametrize("width", [1e-310, 5e-324])
def test_average_rejects_a_bin_too_narrow_to_divide_by(square_dataset, width):
    # 180 / width overflows: every angle above 0 would fall in one infinite bin
    with pytest.raises(ValueError, match="angle_bin must be a finite number in"):
        average_runs(square_dataset, angle_bin=width)


def test_average_takes_the_narrowest_finite_bin(square_dataset):
    out = average_runs(square_dataset, angle_bin=1e-300)
    assert len(out) == len(set(square_dataset.deformation_angle.tolist()))


def test_a_row_breaking_two_rules_is_worded_by_the_first_in_table_order():
    # the family token comes before the angle's range
    with pytest.raises(BadNumberError) as err:
        parse_measurements(HEADER + "\nmystery,,200,forward,1.0,170,r1\n")
    assert (err.value.row, err.value.field) == (2, "family")


def test_the_first_bad_row_fails_before_an_earlier_rule_on_a_later_row():
    # line 3 breaks the angle's range, line 4 the family token: rows come first
    text = (HEADER + "\nstraight,,90,forward,1.0,170,r1\nstraight,,200,forward,1.0,170,r1"
            "\nmystery,,90,forward,1.0,170,r1\n")
    with pytest.raises(OutOfRangeError) as err:
        parse_measurements(text)
    assert (err.value.row, err.value.field) == (3, "deformation_angle_deg")
    assert str(err.value) == (
        "row 3: field 'deformation_angle_deg' out of range (200 not in [0, 180])"
    )
    with pytest.raises(ValueError, match=r"^deformation_angle 200 not in \[0, 180\]$"):
        JointDataset(**_columns(deformation_angle=[200.0, 45.0], family=["curve", "mystery"]))


# -- the dataset constructor -------------------------------------------------------


def _columns(**overrides):
    return {
        "family": ["curve", "square_sym"], "thickness": [0.4, math.nan],
        "deformation_angle": [90.0, 45.0], "direction": ["forward", "reverse"],
        "force": [2.1, 1.0], "return_angle": [165.0, 178.0], "run_id": ["r1", "r2"],
        **overrides,
    }


def test_dataset_columns_are_read_only_arrays():
    ds = JointDataset(**_columns())
    assert ds.force.dtype == float and ds.family.tolist() == ["curve", "square_sym"]
    with pytest.raises(ValueError, match="read-only"):
        ds.force[0] = 3.0


def test_dataset_freezes_its_own_copy_of_a_float_column():
    force = np.array([2.1, 1.0])
    ds = JointDataset(**_columns(force=force))
    force[0] = 3.0  # the caller's array stays writeable, and the dataset's apart from it
    assert ds.force.tolist() == [2.1, 1.0] and not ds.force.flags.writeable


def test_dataset_takes_enum_members_as_tokens():
    ds = JointDataset(**_columns(family=[FamilyKind.CURVE, FamilyKind.SQUARE_SYM],
                                 direction=[Direction.FORWARD, Direction.REVERSE]))
    assert ds.samples == JointDataset(**_columns()).samples


@pytest.mark.parametrize("overrides, error, message", [
    ({"force": [2.1, -1.0]}, ValueError, "^force -1 is not a finite number >= 0$"),
    ({"thickness": [math.nan, math.nan]}, MissingThicknessError, "requires a thickness"),
    ({"thickness": [0.4, 0.8]}, ValueError, "^square_sym family takes no thickness$"),
    ({"direction": ["forward", "sideways"]}, ValueError, "'sideways' is not a valid Direction"),
    ({"force": [True, False]}, ValueError, "^force: expected float$"),
    ({"force": [2.1]}, ValueError, "^dataset columns must be 1-D and of one length$"),
], ids=["range", "missing-thickness", "extra-thickness", "token", "bool", "length"])
def test_dataset_rejects_a_bad_row_with_the_sample_rule(overrides, error, message):
    with pytest.raises(error, match=message):
        JointDataset(**_columns(**overrides))
