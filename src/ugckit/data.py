"""Measurement domain types and CSV ingestion for compliant-joint bench data.

The test bench records, per bend of a joint, the imposed deformation angle,
the holding force at the free end, and the angle the joint recovers to after
release (180 deg = flat, full recovery). A dataset is an immutable list of
such samples plus provenance about where they came from.

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
from dataclasses import dataclass, field, replace

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


class FamilyKind(str, enum.Enum):
    """Joint geometry families; values double as CSV tokens."""

    STRAIGHT = "straight"
    CURVE = "curve"
    DOUBLE_CURVE = "double_curve"
    SQUARE_SYM = "square_sym"
    SQUARE_NONSYM = "square_nonsym"


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
        if self.kind is FamilyKind.CURVE:
            if self.thickness is None:
                raise MissingThicknessError("curve family requires a thickness in mm")
            if not 0 < self.thickness < math.inf:
                raise ValueError(f"thickness must be a finite number > 0, got {self.thickness}")
        elif self.thickness is not None:
            raise ValueError(f"{self.kind.value} family takes no thickness")

    @property
    def input_dim(self) -> int:
        """Model input dimension: [angle, thickness] for curve, [angle] otherwise."""
        return 2 if self.kind is FamilyKind.CURVE else 1

    def label(self) -> str:
        if self.kind is FamilyKind.CURVE:
            return f"curve(T={self.thickness:g}mm)"
        return self.kind.value


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
        if not 0.0 <= self.deformation_angle <= 180.0:
            raise ValueError(f"deformation_angle {self.deformation_angle} outside [0, 180]")
        if not 0.0 <= self.return_angle <= 180.0:
            raise ValueError(f"return_angle {self.return_angle} outside [0, 180]")
        if self.force < 0.0:
            raise ValueError(f"force {self.force} must be non-negative")


@dataclass(frozen=True)
class Provenance:
    source: str = "<memory>"
    note: str = ""
    group_sizes: tuple[int, ...] = ()


@dataclass(frozen=True)
class JointDataset:
    samples: tuple[MeasurementSample, ...]
    provenance: Provenance = field(default_factory=Provenance)

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


def parse_measurements(csv_text: str, source: str = "<memory>") -> JointDataset:
    """Parse bench CSV text into a JointDataset.

    Rows are validated strictly: the first invalid row aborts the parse with
    an error carrying the physical line number (header is line 1).
    """
    reader = csv.DictReader(io.StringIO(csv_text, newline=""))
    try:
        return _parse_records(reader, source)
    except csv.Error as exc:  # a line the csv module cannot split
        raise InputError(f"after line {reader.line_num}: {exc}") from None


def _parse_records(reader: csv.DictReader, source: str) -> JointDataset:
    if reader.fieldnames is None:
        raise EmptyFileError("no CSV content")
    for col in CSV_COLUMNS:
        if col not in reader.fieldnames:
            raise MissingColumnError(col)

    samples = []
    for rec in reader:
        row = reader.line_num
        if None in rec:  # DictReader files the cells past the header under None
            width = len(reader.fieldnames)
            raise InputError(f"row {row}: {width + len(rec[None])} cells, header has {width}")
        if all(v is None or v.strip() == "" for v in rec.values()):
            continue  # blank line

        famtok = (rec.get("family") or "").strip()
        try:
            kind = FamilyKind(famtok)
        except ValueError:
            raise BadNumberError(row, "family", famtok) from None

        thick_raw = (rec.get("thickness_mm") or "").strip()
        if kind is FamilyKind.CURVE:
            if thick_raw == "":
                raise MissingThicknessError(f"row {row}: curve row without thickness_mm")
            thickness = _parse_float(thick_raw, row, "thickness_mm")
            if thickness <= 0:
                raise OutOfRangeError(row, "thickness_mm", "must be > 0")
        else:
            if thick_raw != "":
                raise OutOfRangeError(row, "thickness_mm", "must be empty for non-curve rows")
            thickness = None

        dirtok = (rec.get("direction") or "").strip()
        try:
            direction = Direction(dirtok)
        except ValueError:
            raise BadNumberError(row, "direction", dirtok) from None

        angle = _parse_float(rec.get("deformation_angle_deg"), row, "deformation_angle_deg")
        force = _parse_float(rec.get("force_n"), row, "force_n")
        ret = _parse_float(rec.get("return_angle_deg"), row, "return_angle_deg")
        if not 0.0 <= angle <= 180.0:
            raise OutOfRangeError(row, "deformation_angle_deg", f"{angle:g} not in [0, 180]")
        if force < 0.0:
            raise OutOfRangeError(row, "force_n", f"{force:g} is negative")
        if not 0.0 <= ret <= 180.0:
            raise OutOfRangeError(row, "return_angle_deg", f"{ret:g} not in [0, 180]")

        run_id = (rec.get("run_id") or "").strip()
        samples.append(
            MeasurementSample(
                family=JointFamily(kind, thickness),
                deformation_angle=angle,
                direction=direction,
                force=force,
                return_angle=ret,
                run_id=run_id,
            )
        )

    if not samples:
        raise EmptyFileError("CSV has a header but no data rows")
    return JointDataset(tuple(samples), Provenance(source=source))


def serialize_measurements(ds: JointDataset) -> str:
    """Render a dataset back to CSV; numeric values round-trip exactly."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for s in ds.samples:
        thick = repr(s.family.thickness) if s.family.thickness is not None else ""
        writer.writerow(
            [
                s.family.kind.value,
                thick,
                repr(s.deformation_angle),
                s.direction.value,
                repr(s.force),
                repr(s.return_angle),
                s.run_id,
            ]
        )
    return out.getvalue()


def _group_key(sample: MeasurementSample, angle_bin: float):
    return (
        sample.family.kind.value,
        sample.family.thickness if sample.family.thickness is not None else -1.0,
        sample.direction.value,
        round(sample.deformation_angle / angle_bin),
    )


def average_runs(ds: JointDataset, angle_bin: float = 5.0) -> JointDataset:
    """Collapse repeat runs into per-angle-bin means.

    Samples are grouped by (family, direction, round(angle / angle_bin));
    angle, force, and return angle are replaced by the group means. Averaging
    an already-averaged dataset with the same bin leaves every sample intact.
    """
    if angle_bin <= 0:
        raise ValueError(f"angle_bin must be positive, got {angle_bin}")

    groups: dict[tuple, list[MeasurementSample]] = {}
    for s in ds.samples:
        groups.setdefault(_group_key(s, angle_bin), []).append(s)

    merged = []
    sizes = []
    for key in sorted(groups):
        members = groups[key]
        sizes.append(len(members))
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

    prov = replace(
        ds.provenance,
        note=f"averaged with angle_bin={angle_bin:g} deg",
        group_sizes=tuple(sizes),
    )
    return JointDataset(tuple(merged), prov)
