"""Measurement domain types and CSV ingestion for compliant-joint bench data.

The test bench records, per bend of a joint, the imposed deformation angle,
the holding force at the free end, and the angle the joint recovers to after
release (180 deg = flat, full recovery). A dataset is an immutable,
non-empty tuple of such samples.

CSV wire format (exact header, comma separated):

    family,thickness_mm,deformation_angle_deg,direction,force_n,return_angle_deg,run_id

family is one of straight, curve, double_curve, square_sym, square_nonsym;
thickness_mm must be non-empty exactly for curve rows; direction is forward
or reverse.
"""

import csv
import enum
import io
import math
import operator
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BadNumberError,
    EmptyFileError,
    InputError,
    MissingColumnError,
    MissingThicknessError,
    OutOfRangeError,
)
from .units import finite_float

CSV_COLUMNS = (
    "family",
    "thickness_mm",
    "deformation_angle_deg",
    "direction",
    "force_n",
    "return_angle_deg",
    "run_id",
)

DEFAULT_ANGLE_BIN = 5.0  # deg, the run-averaging bin of average_runs and ugc fit


class FamilyKind(str, enum.Enum):
    """Joint geometry families; values double as CSV tokens."""

    STRAIGHT = "straight"
    CURVE = "curve"
    DOUBLE_CURVE = "double_curve"
    SQUARE_SYM = "square_sym"
    SQUARE_NONSYM = "square_nonsym"

    @property
    def input_dim(self) -> int:
        """Model input dimension: [angle, thickness] for curve, [angle] otherwise."""
        return 2 if self is FamilyKind.CURVE else 1


class Direction(str, enum.Enum):
    FORWARD = "forward"
    REVERSE = "reverse"


@dataclass(frozen=True)
class JointFamily:
    """A joint geometry, with wall thickness for the curve family only.

    Tested curve thicknesses span 0.4 to 1.6 mm in 0.4 mm steps; values in
    between are legal query/design inputs for the 2-D models.
    """

    kind: FamilyKind
    thickness: float | None = None  # mm

    def __post_init__(self):
        # float(True) is 1.0, so a bool would pass the range rules below
        if isinstance(self.thickness, (bool, np.bool_)):
            raise ValueError(f"thickness must be a number, not a bool, got {self.thickness}")
        if self.kind is FamilyKind.CURVE:
            if self.thickness is None:
                raise MissingThicknessError("curve family requires a thickness in mm")
            if not 0 < self.thickness < math.inf:
                raise ValueError(f"thickness must be a finite number > 0, got {self.thickness}")
        elif self.thickness is not None:
            raise ValueError(f"{self.kind.value} family takes no thickness")


# A sample's range rules, stated once for MeasurementSample and the CSV reader:
# attribute, CSV column, bounds, and what a value outside them is.
_SAMPLE_RANGES = (
    ("deformation_angle", "deformation_angle_deg", 0.0, 180.0, "not in [0, 180]"),
    ("force", "force_n", 0.0, sys.float_info.max, "is not a finite number >= 0"),
    ("return_angle", "return_angle_deg", 0.0, 180.0, "not in [0, 180]"),
)


def _range_problem(**values) -> tuple[str, str, str] | None:
    """(attribute, CSV column, detail) of the first value, by attribute, out of range."""
    for attr, column, low, high, text in _SAMPLE_RANGES:
        value = values[attr]
        if not low <= value <= high:
            return attr, column, f"{value:g} {text}"
    return None


@dataclass(frozen=True)
class MeasurementSample:
    """One bench reading: bend a joint to an angle, record force and recovery."""

    family: JointFamily
    deformation_angle: float  # deg
    direction: Direction
    force: float  # N
    return_angle: float  # deg, 180 = full recovery
    run_id: str

    def __post_init__(self):
        for attr, *_ in _SAMPLE_RANGES:
            value = getattr(self, attr)
            if isinstance(value, (bool, np.bool_)):
                raise ValueError(f"{attr} must be a number, not a bool, got {value}")
        problem = _range_problem(**vars(self))
        if problem:
            attr, _, detail = problem
            raise ValueError(f"{attr} {detail}")


@dataclass(frozen=True)
class JointDataset:
    samples: tuple[MeasurementSample, ...]

    def __post_init__(self):
        if not self.samples:
            raise EmptyFileError("dataset has no samples")

    def __len__(self) -> int:
        return len(self.samples)

    def samples_for(self, kind: FamilyKind) -> tuple[MeasurementSample, ...]:
        return tuple(s for s in self.samples if s.family.kind is kind)


def _parse_float(raw, row, fieldname):
    try:
        return finite_float(raw)
    except (TypeError, ValueError):
        raise BadNumberError(row, fieldname, raw) from None


def _parse_token(kind: type[enum.Enum], raw, row, fieldname):
    token = (raw or "").strip()
    try:
        return kind(token)
    except ValueError:
        raise BadNumberError(row, fieldname, token) from None


def parse_measurements(csv_text: str) -> JointDataset:
    """Parse bench CSV text into a JointDataset.

    Rows are validated strictly: the first invalid row aborts the parse with
    an error carrying the physical line number (header is line 1).
    """
    reader = csv.reader(io.StringIO(csv_text, newline=""))
    try:
        return _parse_records(reader)
    except csv.Error as exc:  # a line the csv module cannot split
        raise InputError(f"after line {reader.line_num}: {exc}") from None


def _parse_records(reader) -> JointDataset:
    header = next(reader, None)
    if header is None:
        raise EmptyFileError("no CSV content")
    position = {name: i for i, name in enumerate(header)}
    for col in CSV_COLUMNS:
        if col not in position:
            raise MissingColumnError(col)
    cells_of = operator.itemgetter(*(position[col] for col in CSV_COLUMNS))
    width = len(header)

    samples = []
    for cells in reader:
        row = reader.line_num
        if len(cells) > width:
            raise InputError(f"row {row}: {len(cells)} cells, header has {width}")
        if not any(cell.strip() for cell in cells):
            continue  # blank line
        if len(cells) < width:
            cells += [None] * (width - len(cells))  # cells missing from a short row
        samples.append(_parse_sample(row, *cells_of(cells)))

    if not samples:
        raise EmptyFileError("CSV has a header but no data rows")
    return JointDataset(tuple(samples))


def _parse_sample(row, family, thickness, angle, direction, force, ret, run_id):
    """The sample of one CSV row, its cells in CSV_COLUMNS order. The
    constructors apply the rules; errors gain the row and the column."""
    kind = _parse_token(FamilyKind, family, row, "family")
    thickness = (thickness or "").strip()
    thickness = _parse_float(thickness, row, "thickness_mm") if thickness else None
    try:
        family = JointFamily(kind, thickness)
    except MissingThicknessError as exc:
        raise MissingThicknessError(f"row {row}: field 'thickness_mm' empty ({exc})") from None
    except ValueError as exc:
        raise OutOfRangeError(row, "thickness_mm", str(exc)) from None
    direction = _parse_token(Direction, direction, row, "direction")
    angle = _parse_float(angle, row, "deformation_angle_deg")
    force = _parse_float(force, row, "force_n")
    ret = _parse_float(ret, row, "return_angle_deg")
    try:
        return MeasurementSample(family, angle, direction, force, ret, (run_id or "").strip())
    except ValueError:
        _, column, detail = _range_problem(deformation_angle=angle, force=force, return_angle=ret)
        raise OutOfRangeError(row, column, detail) from None


def _group_key(sample: MeasurementSample, angle_bin: float):
    return (
        sample.family.kind.value,
        sample.family.thickness if sample.family.thickness is not None else -1.0,
        sample.direction.value,
        round(sample.deformation_angle / angle_bin),
    )


def check_angle_bin(angle_bin: float) -> None:
    """ValueError naming angle_bin unless it is a finite bin width in
    (0, 180] deg: a wider bin would merge every angle of a family."""
    if not 0.0 < angle_bin <= 180.0:
        raise ValueError(f"angle_bin must be a finite number in (0, 180] deg, got {angle_bin!r}")


def average_runs(ds: JointDataset, angle_bin: float = DEFAULT_ANGLE_BIN) -> JointDataset:
    """Collapse repeat runs into per-angle-bin means.

    Samples are grouped by (family, thickness, direction, round(angle /
    angle_bin)); angle, force, and return angle are replaced by the group
    means. Averaging an already-averaged dataset with the same bin leaves
    every sample intact. angle_bin must pass check_angle_bin.
    """
    check_angle_bin(angle_bin)

    groups: dict[tuple, list[MeasurementSample]] = {}
    for s in ds.samples:
        groups.setdefault(_group_key(s, angle_bin), []).append(s)

    merged = []
    for key in sorted(groups):
        members = groups[key]
        if len(members) == 1:
            merged.append(members[0])
            continue
        n = len(members)
        merged.append(
            replace(
                members[0],
                deformation_angle=sum(m.deformation_angle for m in members) / n,
                force=sum(m.force for m in members) / n,
                return_angle=sum(m.return_angle for m in members) / n,
                run_id=f"avg-of-{n}",
            )
        )
    return JointDataset(tuple(merged))
