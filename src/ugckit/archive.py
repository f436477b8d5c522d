"""Versioned JSON persistence for fitted models.

One archive holds exactly one fitted model, as one JSON object:

    version         "1"
    model_id        optional tag "<family>:<target>", such as "square_sym:force";
                    the CLI refuses a force archive given as a return model
                    and the other way round
    family          family token or null
    beta            [...]
    noise_variance  number
    kernel          {signal_variance: number, length_scales: [...]}
    train_x         [[...], ...]
    train_y         [...]

Numbers are written with full repr precision, so loading re-fits the model
from bit-identical inputs with the stored beta held fixed and reproduces
every prediction exactly.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import gpr
from .errors import (
    CorruptArchiveError,
    InputError,
    NotPositiveDefiniteError,
    UnsupportedDimensionError,
)
from .units import is_number

FORMAT_VERSION = "1"

# Each numeric field of an archive, declared once: its key path, how deeply it
# nests JSON lists (0 for a number), and the model value it holds. The writer
# and the loader both walk this table.
_NUMERIC_FIELDS = (
    (("beta",), 1, lambda m: m.beta),
    (("noise_variance",), 0, lambda m: m.noise_variance),
    (("kernel", "signal_variance"), 0, lambda m: m.hyper.signal_variance),
    (("kernel", "length_scales"), 1, lambda m: m.hyper.length_scales),
    (("train_x",), 2, lambda m: m.train_x),
    (("train_y",), 1, lambda m: m.train_y),
)

_REQUIRED_KEYS = ("version", "family", *dict.fromkeys(path[0] for path, _, _ in _NUMERIC_FIELDS))

_SHAPES = ("a number", "a list of numbers", "a list of lists of numbers")


@dataclass(frozen=True)
class ArchiveInfo:
    family: str | None
    model_id: str | None


def archive_document(model: gpr.FittedGP, family=None, model_id=None) -> dict:
    """The JSON-ready document for a fitted model."""
    doc = {"version": FORMAT_VERSION, "model_id": model_id, "family": family}
    for path, _, value_of in _NUMERIC_FIELDS:
        parent = doc
        for key in path[:-1]:
            parent = parent.setdefault(key, {})
        parent[path[-1]] = np.asarray(value_of(model), dtype=float).tolist()
    return doc


def save_model(model: gpr.FittedGP, path, family=None, model_id=None) -> None:
    doc = archive_document(model, family=family, model_id=model_id)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write archive {path}: {exc}") from exc


def _read_number_field(doc: dict, path, ndim: int):
    """The field at path as a float (ndim 0) or a float array; CorruptArchiveError
    naming the field unless it holds finite JSON numbers nested ndim lists deep."""
    name = ".".join(path)
    value = doc
    for key in path:
        if not isinstance(value, dict) or key not in value:
            raise CorruptArchiveError(f"field {name} is missing")
        value = value[key]
    stack = [value]  # each leaf must be a number (units.is_number), not a bool or a string
    while stack:
        leaf = stack.pop()
        if isinstance(leaf, list):
            stack.extend(leaf)
        elif not is_number(leaf):
            raise CorruptArchiveError(f"field {name} must hold JSON numbers")
    try:
        array = np.asarray(value, dtype=float)
    except (ValueError, OverflowError) as exc:
        raise CorruptArchiveError(f"field {name}: {exc}") from exc
    if array.ndim != ndim:
        raise CorruptArchiveError(f"field {name} must be {_SHAPES[ndim]}")
    if not np.all(np.isfinite(array)):
        raise CorruptArchiveError(f"field {name} must hold finite numbers")
    return array if ndim else float(array)


def _check_sizes(beta, length_scales, train_x, train_y) -> None:
    """CorruptArchiveError naming the first field whose size does not fit
    train_x: its columns, its rows or the basis terms they give."""
    try:
        terms = gpr.basis_matrix(train_x).shape[1]
    except UnsupportedDimensionError as exc:
        raise CorruptArchiveError(f"field train_x: {exc}") from exc
    rows, columns = train_x.shape
    for name, size, want, per in (
        ("kernel.length_scales", len(length_scales), columns, "train_x column"),
        ("train_y", len(train_y), rows, "train_x row"),
        ("beta", len(beta), terms, "basis term"),
    ):
        if size != want:
            raise CorruptArchiveError(
                f"field {name} has {size} entries, want {want} (one per {per})"
            )


def _model_from_document(doc, spectrum=None) -> tuple[gpr.FittedGP, ArchiveInfo]:
    """The model a parsed archive holds, refitted by gpr.fit on spectrum
    where it matches (see load_archive); CorruptArchiveError naming the field
    at fault. Value ranges are gpr's rules, reported under the field: what
    fit still rejects after the checks here is the noise variance (negative,
    or too small to make the kernel matrix positive definite)."""
    if not isinstance(doc, dict):
        raise CorruptArchiveError("root is not a JSON object")
    missing = [k for k in _REQUIRED_KEYS if k not in doc]
    if missing:
        raise CorruptArchiveError(f"missing fields: {missing}")
    if str(doc["version"]) != FORMAT_VERSION:
        raise CorruptArchiveError(f"field version: {doc['version']!r}, want {FORMAT_VERSION!r}")
    beta, noise, signal_variance, length_scales, train_x, train_y = (
        _read_number_field(doc, key_path, ndim) for key_path, ndim, _ in _NUMERIC_FIELDS
    )
    _check_sizes(beta, length_scales, train_x, train_y)
    try:
        hyper = gpr.KernelHyperParams(signal_variance, length_scales)
    except ValueError as exc:
        raise CorruptArchiveError(f"field kernel: {exc}") from exc
    try:
        model = gpr.fit(train_x, train_y, hyper, noise_variance=noise, beta=beta, spectrum=spectrum)
    except (ValueError, NotPositiveDefiniteError) as exc:
        raise CorruptArchiveError(f"field noise_variance: {exc}") from exc
    return model, ArchiveInfo(family=doc.get("family"), model_id=doc.get("model_id"))


def load_archive(path, spectrum=None) -> tuple[gpr.FittedGP, ArchiveInfo]:
    """Load a model plus its family/id metadata. Every CorruptArchiveError
    reads "archive <path>: ..." and names the field at fault. A leading
    UTF-8 byte-order mark is dropped.

    spectrum: another model's FittedGP.spectrum, which the refit reuses when
    the archive's train_x and length scales match it bit for bit (a force and
    return archive pair of one fit); the model is the same either way."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise InputError(f"cannot read archive {path}: {exc}") from exc
    try:
        return _model_from_document(json.loads(text), spectrum)
    except json.JSONDecodeError as exc:
        raise CorruptArchiveError(f"archive {path}: not valid JSON: {exc}") from exc
    except CorruptArchiveError as exc:
        raise CorruptArchiveError(f"archive {path}: {exc}") from exc
