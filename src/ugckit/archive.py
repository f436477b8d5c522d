"""Versioned JSON persistence for fitted models.

One archive holds exactly one fitted model:

    {
      "version": "1",
      "model_id": "square_sym:force",        # optional label
      "family": "square_sym",                # family token or null
      "beta": [...],
      "noise_variance": ...,
      "kernel": {"signal_variance": ..., "length_scales": [...]},
      "train_x": [[...], ...],
      "train_y": [...]
    }

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
    IoFailureError,
    NotPositiveDefiniteError,
    VersionMismatchError,
)

FORMAT_VERSION = "1"

_REQUIRED_KEYS = ("version", "family", "beta", "noise_variance", "kernel", "train_x", "train_y")


@dataclass(frozen=True)
class ArchiveInfo:
    family: str | None
    model_id: str | None


def archive_document(model: gpr.FittedGP, family=None, model_id=None) -> dict:
    """The JSON-ready document for a fitted model."""
    return {
        "version": FORMAT_VERSION,
        "model_id": model_id,
        "family": family,
        "beta": [float(b) for b in model.beta],
        "noise_variance": float(model.noise_variance),
        "kernel": {
            "signal_variance": float(model.hyper.signal_variance),
            "length_scales": [float(l) for l in model.hyper.length_scales],
        },
        "train_x": [[float(v) for v in row] for row in model.train_x],
        "train_y": [float(v) for v in model.train_y],
    }


def save_model(model: gpr.FittedGP, path, family=None, model_id=None) -> None:
    doc = archive_document(model, family=family, model_id=model_id)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise IoFailureError(f"cannot write archive {path}: {exc}") from exc


def _holds_only_numbers(value) -> bool:
    """Whether value is a JSON number or nested lists of them; a bool or a
    numeric string is not a number, though float() would take it."""
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, list):
            stack.extend(v)
        elif isinstance(v, bool) or not isinstance(v, (int, float)):
            return False
    return True


def _model_from_document(doc: dict) -> tuple[gpr.FittedGP, ArchiveInfo]:
    if not isinstance(doc, dict):
        raise CorruptArchiveError("archive root is not a JSON object")
    missing = [k for k in _REQUIRED_KEYS if k not in doc]
    if missing:
        raise CorruptArchiveError(f"archive missing fields: {missing}")
    if str(doc["version"]) != FORMAT_VERSION:
        raise VersionMismatchError(str(doc["version"]), FORMAT_VERSION)
    try:
        kernel = doc["kernel"]
        raw = {
            "beta": doc["beta"],
            "noise_variance": doc["noise_variance"],
            "kernel.signal_variance": kernel["signal_variance"],
            "kernel.length_scales": kernel["length_scales"],
            "train_x": doc["train_x"],
            "train_y": doc["train_y"],
        }
    except (KeyError, TypeError) as exc:
        raise CorruptArchiveError(f"archive fields malformed: {exc}") from exc
    for name, value in raw.items():
        if not _holds_only_numbers(value):
            raise CorruptArchiveError(f"archive field {name} must hold JSON numbers")
    try:
        numeric = {
            "beta": np.asarray(raw["beta"], dtype=float),
            "noise_variance": float(raw["noise_variance"]),
            "kernel.signal_variance": float(raw["kernel.signal_variance"]),
            "kernel.length_scales": tuple(float(l) for l in raw["kernel.length_scales"]),
            "train_x": np.asarray(raw["train_x"], dtype=float),
            "train_y": np.asarray(raw["train_y"], dtype=float),
        }
    except (TypeError, ValueError, OverflowError) as exc:
        raise CorruptArchiveError(f"archive fields malformed: {exc}") from exc
    for name, value in numeric.items():
        if not np.all(np.isfinite(value)):
            raise CorruptArchiveError(f"archive field {name} must hold finite numbers")
    try:
        hyper = gpr.KernelHyperParams(
            numeric["kernel.signal_variance"], numeric["kernel.length_scales"]
        )
        model = gpr.fit(
            numeric["train_x"],
            numeric["train_y"],
            hyper,
            noise_variance=numeric["noise_variance"],
            beta=numeric["beta"],
        )
    except (TypeError, ValueError, NotPositiveDefiniteError) as exc:
        raise CorruptArchiveError(f"archive fields malformed: {exc}") from exc
    return model, ArchiveInfo(family=doc.get("family"), model_id=doc.get("model_id"))


def load_archive(path) -> tuple[gpr.FittedGP, ArchiveInfo]:
    """Load a model plus its family/id metadata."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoFailureError(f"cannot read archive {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorruptArchiveError(f"archive is not valid JSON: {exc}") from exc
    return _model_from_document(doc)


def load_model(path) -> gpr.FittedGP:
    model, _ = load_archive(path)
    return model
