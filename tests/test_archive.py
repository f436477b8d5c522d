import json

import numpy as np
import pytest

from ugckit import archive, gpr, joints
from ugckit.cli import main
from ugckit.data import FamilyKind
from ugckit.errors import CorruptArchiveError, InputError

from conftest import assert_same_model, bench_square_dataset


@pytest.fixture
def fitted_model():
    rng = np.random.default_rng(13)
    X = np.linspace(10, 170, 12)[:, None]
    y = 1.7 + 0.02 * X[:, 0] + rng.normal(0, 0.05, 12)
    hyper = gpr.KernelHyperParams(float(np.var(y)), (20.0,))
    return gpr.fit(X, y, hyper, noise_variance=0.0025)


def test_round_trip_predictions_identical(tmp_path, fitted_model):
    path = tmp_path / "model.json"
    archive.save_model(fitted_model, path, family="square_sym", model_id="square_sym:force")
    loaded, info = archive.load_archive(path)
    assert info.family == "square_sym"
    assert info.model_id == "square_sym:force"
    thetas = np.random.default_rng(99).uniform(0, 180, 10)
    before = gpr.predict_many(fitted_model, thetas)
    after = gpr.predict_many(loaded, thetas)
    for b, a in zip(before, after):
        assert b.tolist() == a.tolist()  # bit-identical, not merely close


@pytest.mark.parametrize("shuffle", [False, True])
def test_tuned_model_round_trip_predictions_identical(tmp_path, eigh_calls, shuffle):
    rng = np.random.default_rng(5)
    X = np.array([[a, t] for t in (0.4, 0.8, 1.2, 1.6) for a in np.linspace(30.0, 150.0, 9)])
    if shuffle:
        X = X[rng.permutation(len(X))]
    y = 0.02 * X[:, 0] + 4.0 * X[:, 1] ** 2 + rng.normal(0.0, 0.08, len(X))
    v = float(np.var(y))
    grid = gpr.GridSpec((0.5 * v, v), ((10.0, 20.0, 40.0), (0.2, 0.4, 0.8)), (1e-3 * v, 1e-2 * v))
    (tuned,) = gpr.tune_hyperparams(X, [(y, grid)])
    path = tmp_path / "model.json"
    archive.save_model(tuned, path, family="curve")
    eigh_calls.clear()
    loaded, _ = archive.load_archive(path)
    # the archive's rows are a 9 x 4 product grid, so the load takes one eigh per axis
    assert eigh_calls == [(9, 9), (4, 4)]
    assert_same_model(loaded, tuned)
    queries = rng.uniform((0.0, 0.4), (180.0, 1.6), (10, 2))
    before = gpr.predict_many(tuned, queries)
    after = gpr.predict_many(loaded, queries)
    for b, a in zip(before, after):
        assert b.tolist() == a.tolist()  # bit-identical, not merely close


@pytest.mark.parametrize("edit", [None, "train_x", "length_scales"])
def test_return_archive_on_force_spectrum_equals_lone_load(
    tmp_path, square_dataset, eigh_calls, edit
):
    model = joints.fit_family_model(square_dataset, FamilyKind.SQUARE_SYM)
    force_path, return_path = tmp_path / "f.json", tmp_path / "r.json"
    archive.save_model(model.force_model, force_path)
    doc = archive.archive_document(model.return_model)
    if edit == "train_x":
        doc["train_x"][0][0] += 1e-9
    elif edit == "length_scales":
        doc["kernel"]["length_scales"] = [25.0]
    return_path.write_text(json.dumps(doc))
    force, _ = archive.load_archive(force_path)
    eigh_calls.clear()
    shared, _ = archive.load_archive(return_path, spectrum=force.spectrum)
    assert len(eigh_calls) == (0 if edit is None else 1)
    assert (shared.spectrum is force.spectrum) == (edit is None)
    lone, _ = archive.load_archive(return_path)
    assert_same_model(shared, lone)
    assert shared.train_x.tolist() == lone.train_x.tolist()


def _assert_same_predictions(got, want, queries):
    for g, w in zip(gpr.predict_many(got, queries), gpr.predict_many(want, queries)):
        assert g.tolist() == w.tolist()  # bit-identical, not merely close


def test_low_rank_pair_round_trip_at_n_340(tmp_path, eigh_calls):
    model = joints.fit_family_model(bench_square_dataset(1), FamilyKind.SQUARE_SYM)
    force, back = model.force_model, model.return_model
    assert force.spectrum.truncated and back.spectrum is force.spectrum
    force_path, return_path = tmp_path / "f.json", tmp_path / "r.json"
    archive.save_model(force, force_path)
    archive.save_model(back, return_path)
    loaded_force, _ = archive.load_archive(force_path)
    loaded_back, _ = archive.load_archive(return_path, spectrum=loaded_force.spectrum)
    assert loaded_back.spectrum is loaded_force.spectrum
    assert loaded_force.spectrum.truncated
    assert not eigh_calls  # neither the fit nor the loads took the dense eigh
    thetas = np.linspace(10.0, 170.0, 1601)
    _assert_same_predictions(loaded_force, force, thetas)
    _assert_same_predictions(loaded_back, back, thetas)


def test_tuned_low_rank_fit_equals_a_plain_fit_and_reloads(tmp_path):
    model = joints.fit_family_model(bench_square_dataset(2), FamilyKind.SQUARE_SYM, tune=True)
    thetas = np.linspace(10.0, 170.0, 321)
    for tuned in (model.force_model, model.return_model):
        assert tuned.spectrum.truncated
        plain = gpr.fit(tuned.train_x, tuned.train_y, tuned.hyper, tuned.noise_variance)
        assert_same_model(tuned, plain)
        path = tmp_path / "tuned.json"
        archive.save_model(tuned, path)
        loaded, _ = archive.load_archive(path)
        assert_same_model(loaded, tuned)
        _assert_same_predictions(loaded, tuned, thetas)


def test_round_trip_preserves_gls_beta(tmp_path, fitted_model):
    path = tmp_path / "model.json"
    archive.save_model(fitted_model, path)
    loaded, _ = archive.load_archive(path)
    assert loaded.beta.tolist() == fitted_model.beta.tolist()
    assert loaded.noise_variance == fitted_model.noise_variance
    assert loaded.hyper == fitted_model.hyper


def test_document_schema_fields(fitted_model):
    doc = archive.archive_document(fitted_model, family="square_sym")
    assert doc["version"] == archive.FORMAT_VERSION
    assert set(doc) == {
        "version", "model_id", "family", "beta", "noise_variance",
        "kernel", "train_x", "train_y",
    }
    assert set(doc["kernel"]) == {"signal_variance", "length_scales"}


def test_version_mismatch(tmp_path, fitted_model):
    path = tmp_path / "model.json"
    archive.save_model(fitted_model, path)
    doc = json.loads(path.read_text())
    doc["version"] = "0"
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptArchiveError, match="field version: '0', want '1'$"):
        archive.load_archive(path)


def test_truncated_file_is_corrupt(tmp_path, fitted_model):
    path = tmp_path / "model.json"
    archive.save_model(fitted_model, path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(CorruptArchiveError):
        archive.load_archive(path)


def test_missing_field_is_corrupt(tmp_path, fitted_model):
    path = tmp_path / "model.json"
    archive.save_model(fitted_model, path)
    doc = json.loads(path.read_text())
    del doc["train_y"]
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptArchiveError):
        archive.load_archive(path)


def test_missing_file_is_io_failure(tmp_path):
    with pytest.raises(InputError, match="^cannot read archive "):
        archive.load_archive(tmp_path / "nope.json")


NUMERIC_FIELDS = pytest.mark.parametrize(
    "path",
    [
        ("beta",),
        ("noise_variance",),
        ("kernel", "signal_variance"),
        ("kernel", "length_scales"),
        ("train_x",),
        ("train_y",),
    ],
    ids=".".join,
)


def _write_with_literal(model, path, literal, model_path):
    """Write model's archive with the first number of the field at path
    replaced by a raw JSON literal."""
    doc = archive.archive_document(model, family="square_sym")
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    value = parent[path[-1]]
    if not isinstance(value, list):
        parent[path[-1]] = "PLACEHOLDER"
    elif isinstance(value[0], list):
        value[0][0] = "PLACEHOLDER"
    else:
        value[0] = "PLACEHOLDER"
    model_path.write_text(json.dumps(doc).replace('"PLACEHOLDER"', literal))


@NUMERIC_FIELDS
@pytest.mark.parametrize("literal", ["NaN", "Infinity"])
def test_non_finite_field_exits_2_naming_it(tmp_path, fitted_model, capsys, path, literal):
    model_path = tmp_path / "model.json"
    _write_with_literal(fitted_model, path, literal, model_path)
    assert main(["predict", "--model", str(model_path), "--theta", "60"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: archive {model_path}: field {'.'.join(path)} must hold finite numbers\n"


@NUMERIC_FIELDS
@pytest.mark.parametrize("literal", ['"0.5"', "true"], ids=["string", "true"])
def test_non_number_field_exits_2_naming_it(tmp_path, fitted_model, capsys, path, literal):
    # float() and numpy would turn either literal into a number
    model_path = tmp_path / "model.json"
    _write_with_literal(fitted_model, path, literal, model_path)
    assert main(["predict", "--model", str(model_path), "--theta", "60"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: archive {model_path}: field {'.'.join(path)} must hold JSON numbers\n"


def test_missing_fields_are_all_listed(tmp_path, fitted_model):
    path = tmp_path / "model.json"
    doc = archive.archive_document(fitted_model)
    for key in ("beta", "kernel", "train_y"):
        del doc[key]
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptArchiveError) as err:
        archive.load_archive(path)
    assert str(err.value) == f"archive {path}: missing fields: ['beta', 'kernel', 'train_y']"


@pytest.mark.parametrize(
    "path, value, shape",
    [
        (("noise_variance",), [0.0025], "a number"),
        (("kernel", "signal_variance"), [1.0], "a number"),
        (("kernel", "length_scales"), 20.0, "a list of numbers"),
        (("kernel", "length_scales"), [[20.0]], "a list of numbers"),
        (("beta",), [[1.0, 0.0, 0.0]], "a list of numbers"),
        (("train_x",), [10.0] * 12, "a list of lists of numbers"),
        (("train_y",), 1.0, "a list of numbers"),
    ],
    ids=["noise-list", "signal-list", "scales-number", "scales-nested", "beta-nested",
         "train_x-flat", "train_y-number"],
)
def test_field_nesting_checked(tmp_path, fitted_model, capsys, path, value, shape):
    doc = archive.archive_document(fitted_model, family="square_sym")
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc))
    assert main(["predict", "--model", str(model_path), "--theta", "60"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: archive {model_path}: field {'.'.join(path)} must be {shape}\n"


def _third_train_x_column(doc):
    for row in doc["train_x"]:
        row.append(0.5)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_third_train_x_column, "field train_x: basis covers d in {1, 2}, got d=3"),
        (lambda doc: doc["kernel"]["length_scales"].pop(),
         "field kernel.length_scales has 1 entries, want 2 (one per train_x column)"),
        (lambda doc: doc["train_y"].pop(),
         "field train_y has 19 entries, want 20 (one per train_x row)"),
        (lambda doc: doc["beta"].pop(), "field beta has 4 entries, want 5 (one per basis term)"),
    ],
    ids=["train_x", "kernel.length_scales", "train_y", "beta"],
)
def test_size_mismatch_exits_2_naming_field_and_file(tmp_path, capsys, corrupt, message):
    # the built-in curve model: 20 anchors of angle and thickness
    doc = archive.archive_document(joints.builtin_model(FamilyKind.CURVE).force_model)
    corrupt(doc)
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptArchiveError):
        archive.load_archive(path)
    argv = ["predict", "--model", str(path), "--theta", "90", "--thickness", "0.8"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: archive {path}: {message}\n"


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda doc: doc["kernel"].update(length_scales=[-20.0, 0.4]),
         "field kernel: length scales must all be finite and > 0, got (-20.0, 0.4)"),
        (lambda doc: doc.update(noise_variance=-0.0025),
         "field noise_variance: noise_variance must be finite and >= 0, got -0.0025"),
        (lambda doc: doc["kernel"].update(signal_variance=-1.0),
         "field kernel: signal_variance must be finite and >= 0, got -1.0"),
        (lambda doc: doc["kernel"].pop("signal_variance"),
         "field kernel.signal_variance is missing"),
        (lambda doc: doc.update(kernel=[1.0, 20.0]), "field kernel.signal_variance is missing"),
        (lambda doc: doc.update(beta=[10**400, 0.0, 0.0, 0.0, 0.0]),
         "field beta: int too large to convert to float"),
    ],
    ids=["length_scales", "noise_variance", "signal_variance", "key-missing", "kernel-list",
         "beta-overflow"],
)
def test_bad_value_exits_2_naming_field_and_file(tmp_path, capsys, corrupt, message):
    # the value ranges are gpr's rules, reported under the archive field
    doc = archive.archive_document(joints.builtin_model(FamilyKind.CURVE).force_model)
    corrupt(doc)
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(doc))
    argv = ["predict", "--model", str(path), "--theta", "90", "--thickness", "0.8"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: archive {path}: {message}\n"


@pytest.mark.parametrize(
    "text, message", [("{", "not valid JSON: "), ("[]", "root is not a JSON object")],
    ids=["not-json", "not-object"],
)
def test_unreadable_document_names_the_file(tmp_path, text, message):
    path = tmp_path / "model.json"
    path.write_text(text)
    with pytest.raises(CorruptArchiveError) as err:
        archive.load_archive(path)
    assert str(err.value).startswith(f"archive {path}: {message}")
