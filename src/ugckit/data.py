"""Bench measurements: joint families, CSV ingestion and run averaging.

The test bench records, per bend of a joint, the imposed deformation angle,
the holding force at the free end, and the angle the joint recovers to after
release (180 deg = flat, full recovery). A JointDataset holds a non-empty
set of such readings as columns, one array per CSV column; a
MeasurementSample is one reading as an object, under the same rules.

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
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadNumberError,
    InputError,
    MissingColumnError,
    MissingThicknessError,
    OutOfRangeError,
)
from .units import _ANY, checked, finite_float

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
        if self.thickness is not None:
            object.__setattr__(self, "thickness", checked("thickness", self.thickness, _ANY))
        if self.kind is FamilyKind.CURVE:
            if self.thickness is None:
                raise MissingThicknessError("curve family requires a thickness in mm")
            if self.thickness <= 0:
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
            object.__setattr__(self, attr, checked(attr, getattr(self, attr), _ANY))
        problem = _range_problem(**vars(self))
        if problem:
            attr, _, detail = problem
            raise ValueError(f"{attr} {detail}")


@dataclass(frozen=True, eq=False)
class JointDataset:
    """Bench readings as read-only columns, one entry per reading: family,
    direction and run_id hold str tokens (FamilyKind and Direction values),
    the others floats, thickness NaN where the family takes none. The columns
    follow the rules of JointFamily and MeasurementSample; samples builds the
    rows as such objects on demand."""

    family: np.ndarray
    thickness: np.ndarray  # mm
    deformation_angle: np.ndarray  # deg
    direction: np.ndarray
    force: np.ndarray  # N
    return_angle: np.ndarray  # deg, 180 = full recovery
    run_id: np.ndarray

    def __post_init__(self):
        for name, value in vars(self).items():
            if name in ("family", "direction", "run_id"):
                column = np.array(value, dtype=object)  # a str array would drop trailing NULs
            elif (column := np.array(value)).dtype.kind in "fiu":  # no bool, str or object
                column = column.astype(float)
            else:
                raise ValueError(f"{name} must hold numbers, got dtype {column.dtype}")
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if len({c.shape for c in vars(self).values()}) > 1 or self.force.ndim != 1:
            raise ValueError("dataset columns must be 1-D and of one length")
        if not len(self):
            raise InputError("dataset has no samples")
        if _bad_rows(**vars(self)).any():
            self.samples  # raises the first bad row's error
            raise AssertionError("a row breaks a column rule but no MeasurementSample rule")

    def __len__(self) -> int:
        return len(self.force)

    @property
    def samples(self) -> tuple[MeasurementSample, ...]:
        """The rows as MeasurementSample objects, built on each access."""
        rows = zip(*(column.tolist() for column in vars(self).values()))
        return tuple(
            MeasurementSample(JointFamily(FamilyKind(k), None if math.isnan(t) else t), a,
                              Direction(d), f, r, run)
            for k, t, a, d, f, r, run in rows
        )


def _bad_rows(family, thickness, direction, **values) -> np.ndarray:
    """Mask of the rows that break a rule of JointFamily or MeasurementSample."""
    kinds, directions = {k.value for k in FamilyKind}, {d.value for d in Direction}
    bad = np.array([k not in kinds or d not in directions for k, d in zip(family, direction)],
                   dtype=bool)
    thin = ~((thickness > 0.0) & (thickness < math.inf))
    bad |= np.where(family == FamilyKind.CURVE.value, thin, ~np.isnan(thickness))
    for attr, _, low, high, _ in _SAMPLE_RANGES:
        bad |= ~((values[attr] >= low) & (values[attr] <= high))
    return bad


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


def _floats(cells) -> np.ndarray:
    """The cells as floats, read as finite_float reads them; NaN for no number."""
    try:
        return np.array(list(map(float, cells)))
    except (TypeError, ValueError):
        return np.array([_float_or_nan(cell) for cell in cells])


def _float_or_nan(cell) -> float:
    try:
        return float(cell)
    except (TypeError, ValueError):
        return math.nan


def parse_measurements(csv_text: str) -> JointDataset:
    """Parse bench CSV text into a JointDataset.

    Rows are validated strictly: the first invalid row aborts the parse with
    an error carrying the physical line number (header is line 1). The rules
    run on whole columns; when a row breaks one, _parse_sample finds and
    words the first bad row.
    """
    reader = csv.reader(io.StringIO(csv_text, newline=""))
    rows, lines, stop = [], [], None
    try:
        header = next(reader, None)
        if header is None:
            raise InputError("no CSV content")
        position = {name: i for i, name in enumerate(header)}
        for col in CSV_COLUMNS:
            if col not in position:
                raise MissingColumnError(col)
        width = len(header)
        for cells in reader:
            if len(cells) > width:
                stop = InputError(f"row {reader.line_num}: {len(cells)} cells, header has {width}")
                break
            if not "".join(cells).strip():
                continue  # blank line
            if len(cells) < width:
                cells += [None] * (width - len(cells))  # cells missing from a short row
            rows.append(cells)
            lines.append(reader.line_num)
    except csv.Error as exc:  # a line the csv module cannot split
        stop = InputError(f"after line {reader.line_num}: {exc}")
    if rows:
        cells_of = operator.itemgetter(*(position[col] for col in CSV_COLUMNS))
        family, thickness, angle, direction, force, ret, run_id = cells_of(list(zip(*rows)))
        family, thickness, direction, run_id = (
            np.array([(cell or "").strip() for cell in column], dtype=object)
            for column in (family, thickness, direction, run_id)
        )
        values = _floats([t or "nan" for t in thickness])
        # a given thickness cell must hold a finite number: +inf breaks every family's rule
        values[np.array(list(map(bool, thickness))) & ~np.isfinite(values)] = math.inf
        try:
            dataset = JointDataset(
                family, values, _floats(angle), direction, _floats(force), _floats(ret), run_id
            )
        except (ValueError, InputError) as exc:  # the row rules find and word the first bad row
            for line, cells in zip(lines, rows):
                _parse_sample(line, *cells_of(cells))
            raise AssertionError("the column rules refuse a row the row rules pass") from exc
    if stop is not None:  # a bad row above the line that stopped the reader fails first
        raise stop
    if not rows:
        raise InputError("CSV has a header but no data rows")
    return dataset


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


def check_angle_bin(angle_bin: float) -> float:
    """angle_bin as a float; ValueError naming it unless it is a finite bin
    width in (0, 180] deg and 180 / angle_bin is finite: a wider bin would
    merge every angle of a family, a narrower one every angle above 0."""
    angle_bin = checked("angle_bin", angle_bin, _ANY)
    if not (0.0 < angle_bin <= 180.0 and 180.0 / angle_bin < math.inf):
        raise ValueError(f"angle_bin must be a finite number in (0, 180] deg, got {angle_bin!r}")
    return angle_bin


def average_runs(ds: JointDataset, angle_bin: float = DEFAULT_ANGLE_BIN) -> JointDataset:
    """Collapse repeat runs into per-angle-bin means.

    Rows are grouped by (family, thickness, direction, round(angle /
    angle_bin)) and the groups sorted by that key. A group's angle, force and
    return angle are its means, summed in row order; its other columns are
    those of its first row, and a group of one keeps its row exactly.
    Averaging an already-averaged dataset with the same bin leaves every row
    intact. angle_bin must pass check_angle_bin.
    """
    angle_bin = check_angle_bin(angle_bin)
    thickness = np.nan_to_num(ds.thickness, nan=-1.0)
    keys = (np.round(ds.deformation_angle / angle_bin), ds.direction, thickness, ds.family)
    order = np.lexsort(keys)  # stable: a group's rows stay in row order
    starts = np.r_[True, np.any([k[order][1:] != k[order][:-1] for k in keys], axis=0)]
    group = np.empty_like(order)
    group[order] = np.cumsum(starts) - 1
    first, counts = order[starts], np.bincount(group)
    single = counts == 1

    def mean(column):  # bincount adds each group's values in row order, as sum() does
        return np.where(single, column[first], np.bincount(group, column) / counts)

    run_id = [ds.run_id[i] if n == 1 else f"avg-of-{n}" for i, n in zip(first, counts)]
    return JointDataset(
        ds.family[first], ds.thickness[first], mean(ds.deformation_angle),
        ds.direction[first], mean(ds.force), mean(ds.return_angle), run_id,
    )
