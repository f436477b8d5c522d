"""Bench measurements: joint families, CSV ingestion and run averaging.

The test bench records, per bend of a joint, the imposed deformation angle,
the holding force at the free end, and the angle the joint recovers to after
release (180 deg = flat, full recovery). A JointDataset holds a non-empty
set of such readings as columns, one array per CSV column. One ordered
table, _RULES, states each row rule once, as a column mask and an error
builder: the CSV reader, JointDataset and JointFamily all check through it.

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

import numpy as np

from .errors import (
    BadNumberError,
    InputError,
    MissingColumnError,
    MissingThicknessError,
    OutOfRangeError,
)
from .units import _ANY, _Record, checked, floats

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


# A sample's range rules: attribute, CSV column, bounds, and what a value outside them is.
_SAMPLE_RANGES = (
    ("deformation_angle", "deformation_angle_deg", 0.0, 180.0, "not in [0, 180]"),
    ("force", "force_n", 0.0, math.inf, "is not a finite number >= 0"),
    ("return_angle", "return_angle_deg", 0.0, 180.0, "not in [0, 180]"),
)


def _rule(column, bad, kind, detail, name=""):
    """A row rule: the CSV column its error names, the mask bad(columns) of the
    rows that break it, and the error builder error(line, cell, row). On a CSV
    line that is kind naming line and column: BadNumberError quotes the raw
    cell, OutOfRangeError and MissingThicknessError give detail(row). For a
    library call (line None) it is ValueError(name + detail(row)), or
    MissingThicknessError(detail(row))."""
    def error(line, cell, row):
        text = detail(row)
        if kind is MissingThicknessError:
            return kind(text if line is None else f"row {line}: field {column!r} empty ({text})")
        if line is None:
            return ValueError(name + text)
        return kind(line, column, cell if kind is BadNumberError else text)
    return column, bad, error


def _token_rule(kind: type[enum.Enum], attr: str):
    tokens = frozenset(member.value for member in kind)
    return _rule(attr, lambda c: np.array([t not in tokens for t in c[attr]], dtype=bool),
                 BadNumberError, lambda r: f"{r[attr]!r} is not a valid {kind.__name__}")


# The row rules, in the order a row is checked: the family token; the thickness (a given
# one, not NaN, is finite; curve rows have one and it is > 0; other families have none);
# the direction token; each number finite; each number in its range; the run id a str.
# A mask reads the columns by attribute, one 1-D array each.
_CURVE = FamilyKind.CURVE.value
_THICKNESS_RULES = (
    _rule("thickness_mm", lambda c: np.isinf(c["thickness"]), BadNumberError,
          lambda r: "thickness: must be a finite number"),
    _rule("thickness_mm", lambda c: (c["family"] == _CURVE) & np.isnan(c["thickness"]),
          MissingThicknessError, lambda r: "curve family requires a thickness in mm"),
    _rule("thickness_mm", lambda c: (c["family"] == _CURVE) & (c["thickness"] <= 0.0),
          OutOfRangeError,
          lambda r: f"thickness must be a finite number > 0, got {r['thickness']}"),
    _rule("thickness_mm", lambda c: (c["family"] != _CURVE) & ~np.isnan(c["thickness"]),
          OutOfRangeError, lambda r: f"{FamilyKind(r['family']).value} family takes no thickness"),
)
_RULES = (
    _token_rule(FamilyKind, "family"), *_THICKNESS_RULES,
    _token_rule(Direction, "direction"),
    *(_rule(column, lambda c, a=attr: ~np.isfinite(c[a]), BadNumberError,
            lambda r, a=attr: f"{a}: must be a finite number")
      for attr, column, *_ in _SAMPLE_RANGES),
    *(_rule(column, lambda c, a=attr, lo=low, hi=high: (c[a] < lo) | (c[a] > hi),
            OutOfRangeError, lambda r, a=attr, t=text: f"{r[a]:g} {t}", f"{attr} ")
      for attr, column, low, high, text in _SAMPLE_RANGES),
    _rule("run_id", lambda c: np.array([not isinstance(t, str) for t in c["run_id"]], dtype=bool),
          BadNumberError, lambda r: "run_id: expected str"),
)


def _check(columns: dict, rules=_RULES, lines=None, cells=None) -> None:
    """Raise the error of the first broken rule, rows in order and each row's
    rules in table order. columns map attribute to 1-D array. With lines, the
    error names CSV line lines[i] and quotes its cell in cells; without, it is
    the library's."""
    bad = np.array([mask(columns) for _, mask, _ in rules]).T  # rows x rules
    if bad.any():
        i, j = divmod(int(bad.argmax()), len(rules))
        column, _, error = rules[j]
        row = {name: value[[i]].item() for name, value in columns.items()}
        line, cell = (None, None) if lines is None else (lines[i], cells[column][i])
        raise error(line, cell, row) from None


class JointFamily(_Record):
    """A joint geometry, with wall thickness for the curve family only.

    Tested curve thicknesses span 0.4 to 1.6 mm in 0.4 mm steps; values in
    between are legal query/design inputs for the 2-D models.
    """

    kind: FamilyKind
    thickness: float | None = None  # mm

    def __post_init__(self):
        if self.thickness is not None:
            object.__setattr__(self, "thickness", checked("thickness", self.thickness, _ANY))
        thickness = math.nan if self.thickness is None else self.thickness
        _check({"family": np.array([self.kind.value]), "thickness": np.array([thickness])},
               _THICKNESS_RULES)


class JointDataset(_Record):
    """Bench readings as read-only columns, one entry per reading: family,
    direction and run_id hold str tokens (FamilyKind and Direction values),
    the others floats, thickness NaN where the family takes none. Every row
    keeps every rule of _RULES."""

    family: np.ndarray
    thickness: np.ndarray  # mm
    deformation_angle: np.ndarray  # deg
    direction: np.ndarray
    force: np.ndarray  # N
    return_angle: np.ndarray  # deg, 180 = full recovery
    run_id: np.ndarray

    __eq__, __hash__ = object.__eq__, object.__hash__  # by identity: its columns are arrays

    def __post_init__(self):
        for name, value in vars(self).items():
            if name in ("family", "direction", "run_id"):
                column = np.array(value, dtype=object)  # a str array would drop trailing NULs
            else:  # a copy of its own, which it freezes
                column = np.array(floats(name, value))
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if len({c.shape for c in vars(self).values()}) > 1 or self.force.ndim != 1:
            raise ValueError("dataset columns must be 1-D and of one length")
        if not len(self):
            raise InputError("dataset has no samples")
        _check(vars(self))

    def __len__(self) -> int:
        return len(self.force)


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
    an error carrying the physical line number (header is line 1). The rule
    table runs once on whole columns, as JointDataset checks them; the first
    broken (row, rule), row by row, words the error from its line and cell.
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
        cells = dict(zip(CSV_COLUMNS, cells_of(list(zip(*rows)))))
        for col in ("family", "thickness_mm", "direction", "run_id"):  # read stripped
            cells[col] = np.array([(cell or "").strip() for cell in cells[col]], dtype=object)
        thickness = _floats([t or "nan" for t in cells["thickness_mm"]])
        # a given thickness cell must hold a finite number: +inf breaks that rule
        thickness[cells["thickness_mm"].astype(bool) & ~np.isfinite(thickness)] = math.inf
        columns = {
            "family": cells["family"], "thickness": thickness, "direction": cells["direction"],
            "run_id": cells["run_id"], **{a: _floats(cells[c]) for a, c, *_ in _SAMPLE_RANGES},
        }
        try:
            dataset = JointDataset(**columns)
        except (ValueError, InputError):  # word the first broken rule for its CSV row
            _check(columns, lines=lines, cells=cells)
            raise
    if stop is not None:  # a bad row above the line that stopped the reader fails first
        raise stop
    if not rows:
        raise InputError("CSV has a header but no data rows")
    return dataset


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
