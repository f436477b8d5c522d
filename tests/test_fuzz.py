"""Fuzzing the three input parsers: design-spec JSON, bench CSV and model archives.

Whatever the input, a parser either returns a value or raises an InputError
subclass, and `ugc validate` answers 0 or 2 without raising. The documents
are arbitrary JSON values, plus mutations of a valid document that keep,
drop or replace each key, so that the checks past the first one are reached.
A valid bench CSV with one or two bad cells or rows injected fails exactly as
the row-by-row oracle fails: same exception type and message.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ugckit import archive, cli, gpr, mechanics
from ugckit.data import CSV_COLUMNS, FamilyKind, parse_measurements
from ugckit.errors import InputError

from conftest import assert_same_rows, oracle_parse

FUZZ = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

TOKENS = [k.value for k in FamilyKind] + ["forward", "reverse"]

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**300, max_value=10**400)
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(TOKENS)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def mutations(valid):
    """Documents shaped like valid: each dict key kept, dropped or mutated, each
    list element mutated, and any value possibly replaced by arbitrary JSON."""
    if isinstance(valid, dict):
        shaped = st.builds(
            lambda kept, stray: {**kept, **stray},
            st.fixed_dictionaries({}, optional={k: mutations(v) for k, v in valid.items()}),
            st.dictionaries(st.text(max_size=6), json_values, max_size=1),
        )
    elif isinstance(valid, list) and valid:
        shaped = st.tuples(*(mutations(v) for v in valid)).map(list)
    else:
        shaped = st.just(valid)
    return st.one_of(shaped, shaped, json_values)


VALID_SPEC = {
    "outer_radius_mm": 100.0,
    "n_sections": 5,
    "joints_per_ring": 40,
    "ring_layers": 2,
    "target_ratio": 0.85,
    "actuator": {"rated_torque_nm": 0.08, "spindle_radius_mm": 3.0, "overdrive_factor": 1.0},
    "joint": {"family": "curve", "thickness_mm": 0.8},
    "per_joint_force_n": 1.05,
    "friction_loss_factor": 1.2,
}


def _valid_archive() -> dict:
    X = np.array([[30.0], [60.0], [90.0], [120.0], [150.0]])
    y = 1.0 + 0.02 * X[:, 0]
    model = gpr.fit(X, y, gpr.KernelHyperParams(1.0, (20.0,)), noise_variance=0.01)
    return archive.archive_document(model, family="square_sym")


csv_cells = st.sampled_from(
    TOKENS + ["", " ", "0", "0.4", "90", "180", "-1", "200", "nan", "inf", "1e400", "r1", '"']
) | st.text(max_size=5)
csv_texts = st.lists(st.lists(csv_cells, max_size=9).map(",".join), max_size=4).map(
    lambda rows: ",".join(CSV_COLUMNS) + "\n" + "\n".join(rows) + "\n"
)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(doc=json_values | mutations(VALID_SPEC))
def test_spec_reader(scratch, doc):
    try:
        spec = mechanics.spec_from_json_dict(doc)
    except InputError:
        pass
    else:
        assert mechanics.spec_from_json_dict(mechanics.spec_to_json_dict(spec)) == spec
    path = scratch / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["validate", "--quiet", "--spec", str(path)]) in (0, 2)


@FUZZ
@given(text=csv_texts)
def test_csv_reader(scratch, text):
    try:
        assert len(parse_measurements(text)) >= 1
    except InputError:
        pass
    path = scratch / "bench.csv"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["validate", "--quiet", "--data", str(path)]) in (0, 2)


@FUZZ
@given(doc=json_values | mutations(_valid_archive()))
def test_archive_loader(scratch, doc):
    path = scratch / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        model, _ = archive.load_archive(path)
    except InputError:
        return
    assert np.all(np.isfinite(model.alpha))


# A valid CSV of both directions and three families, with a blank line; the
# injections below each make one row bad in one way.
VALID_ROWS = [
    ["curve", "0.4", "30", "forward", "1.5", "179.9", "r1"],
    ["square_sym", "", "90", "reverse", "2.0", "172", "r1"],
    ["curve", " 1.2 ", "1_20", "forward", "2.5", "160", "r2"],
    [],
    ["straight", "", "45.5", "forward", "0", "180", ""],
    ["curve", "0.8", "150", "reverse", "3.0", "0", "r3"],
    ["square_nonsym", "", "0", "forward", "1e3", "175", "r1"],
]
NUMBER_COLUMNS = [1, 2, 4, 5]  # thickness, angle, force, return angle


def _set(cells, col, value):
    if col < len(cells):  # an earlier injection may have cut the row short
        cells[col] = value


INJECTIONS = {
    "not a number": lambda cells, col: _set(cells, NUMBER_COLUMNS[col % 4], "x1"),
    "nan": lambda cells, col: _set(cells, NUMBER_COLUMNS[col % 4], "nan"),
    "inf": lambda cells, col: _set(cells, NUMBER_COLUMNS[col % 4], "-inf"),
    "out of range": lambda cells, col: _set(
        cells, NUMBER_COLUMNS[col % 4], ["-0.4", "180.5", "-1", "200"][col % 4]),
    "bad token": lambda cells, col: _set(cells, [0, 3][col % 2], "sideways"),
    "thickness missing or extra": lambda cells, col: _set(
        cells, 1, "" if cells[:1] == ["curve"] else "0.8"),
    "short row": lambda cells, col: cells.__delitem__(slice(col % 7, None)),
    "wide row": lambda cells, col: cells.append("extra"),
}


def _outcome(parse, text):
    try:
        return "parsed", parse(text)
    except Exception as exc:  # the type and message are what is compared
        return "raised", type(exc), str(exc)


def _assert_parses_as_the_oracle(text):
    got, want = _outcome(parse_measurements, text), _outcome(oracle_parse, text)
    if want[0] == "raised":
        assert got == want
    else:
        assert_same_rows(got[1], want[1])


@FUZZ
@given(
    edits=st.lists(
        st.tuples(
            st.integers(0, len(VALID_ROWS) - 1), st.sampled_from(sorted(INJECTIONS)),
            st.integers(0, 6),
        ),
        min_size=1, max_size=2,
    )
)
def test_csv_first_error_matches_the_row_by_row_oracle(edits):
    rows = [list(cells) for cells in VALID_ROWS]
    for row, injection, col in edits:
        INJECTIONS[injection](rows[row], col)
    _assert_parses_as_the_oracle(
        ",".join(CSV_COLUMNS) + "\n" + "\n".join(map(",".join, rows)) + "\n"
    )


@FUZZ
@given(text=csv_texts)
def test_csv_reader_matches_the_row_by_row_oracle(text):
    _assert_parses_as_the_oracle(text)


def test_the_injection_base_parses():
    base = ",".join(CSV_COLUMNS) + "\n" + "\n".join(map(",".join, VALID_ROWS)) + "\n"
    assert len(parse_measurements(base)) == len(VALID_ROWS) - 1  # one blank line
    _assert_parses_as_the_oracle(base)
