"""Fuzzing the three input parsers: design-spec JSON, bench CSV and model archives.

Whatever the input, a parser either returns a value or raises an InputError
subclass, and `ugc validate` answers 0 or 2 without raising. The documents
are arbitrary JSON values, plus mutations of a valid document that keep,
drop or replace each key, so that the checks past the first one are reached.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ugckit import archive, cli, gpr, mechanics
from ugckit.data import CSV_COLUMNS, FamilyKind, parse_measurements
from ugckit.errors import InputError

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
