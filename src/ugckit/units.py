"""Unit conversion helpers and the one typed-number rule.

Angles travel through the toolkit in degrees and lengths in millimeters;
torque math switches to SI (N, m) only inside the ring-mechanics module.
Keeping the conversions in one place makes that boundary testable.

checked is the one typed-number rule of every library input: design-spec
fields, kernel hyperparameters and noise, joint thickness, bench samples,
the averaging bin, ring geometry and joint-model queries. A bool, a string
or bytes is refused there, though float() reads each. floats states it for
every array input, entry by entry; both test the type with is_number.
finite_float reads CSV cells and CLI flags, which are text.

_Record is the base of every frozen record of the toolkit (model, spec,
report and archive records): dataclass fields with the methods of
@dataclass(frozen=True), defined once here in place of generated per class.
"""

import dataclasses
import math
import numbers

import numpy as np

DEG_PER_RAD = 180.0 / math.pi


def deg_to_rad(angle_deg: float) -> float:
    return angle_deg / DEG_PER_RAD


def rad_to_deg(angle_rad: float) -> float:
    return angle_rad * DEG_PER_RAD


def mm_to_m(length_mm: float) -> float:
    return length_mm / 1000.0


def m_to_mm(length_m: float) -> float:
    return length_m * 1000.0


def finite_float(value) -> float:
    """value as a float; ValueError unless it is a finite number.

    Rejects inf and nan, and integers too large for a float. Its name shows
    in argparse's message for a flag of this type.
    """
    try:
        x = float(value)
    except OverflowError:
        raise ValueError("integer too large for a float") from None
    if not math.isfinite(x):
        raise ValueError(f"{value!r} is not a finite number")
    return x


# Rules for checked: (test, message text).


def _at_least(low):
    return (lambda v: v >= low), f"must be >= {low}"


_ANY = (lambda v: True), ""
_POSITIVE = (lambda v: v > 0), "must be > 0"
_RATIO = (lambda v: 0 < v <= 1), "must be in (0, 1]"


def is_number(value, kind=float) -> bool:
    """Whether value is a number of kind: an integral number for int, any
    real number for float, numpy's included. A bool is neither, though
    float() reads it as 1.0 or 0.0."""
    if type(value) is kind:  # the common case, without the ABC lookup
        return True
    wanted = numbers.Integral if kind is int else numbers.Real
    return isinstance(value, wanted) and not isinstance(value, bool)


def checked(label: str, value, rule, kind=float):
    """value as kind, int or float; ValueError starting with label if it is
    not a number of that kind (is_number), is not finite, or breaks rule.
    An int too large for a float is not finite: the geometry divides by it."""
    if not is_number(value, kind):
        raise ValueError(f"{label}: expected {kind.__name__}")
    try:
        x = finite_float(value)
        value = int(value) if kind is int else x
    except ValueError:
        raise ValueError(f"{label}: must be a finite number") from None
    if not rule[0](value):
        raise ValueError(f"{label}: {rule[1]}")
    return value


def floats(label: str, value) -> np.ndarray:
    """value as a float array; ValueError "<label>: expected float" unless each
    entry is a number (is_number), or "<label>: must be a finite number" for an
    int too large for a float. NaN and inf pass. An ndarray of ints or floats
    skips the scan, which finds the bool that numpy's array of a list hides."""
    try:  # numpy refuses some ragged nests of arrays even as objects
        if not (isinstance(value, np.ndarray) and value.dtype.kind in "fiu"):
            value = np.array(value, dtype=object)
            if not all(map(is_number, value.flat)):
                raise ValueError
        return value.astype(float, copy=False)
    except ValueError:
        raise ValueError(f"{label}: expected float") from None
    except OverflowError:
        raise ValueError(f"{label}: must be a finite number") from None


class _Record:
    """Base of the frozen records. A subclass's annotations are its
    dataclass fields, so dataclasses.fields and replace and field(default=,
    metadata=) work; __init__, ==, hash and repr act as those of
    @dataclass(frozen=True), over every field, and assigning or deleting an
    attribute raises FrozenInstanceError. dataclass is applied only for its
    field bookkeeping: the methods it would generate and exec cost about
    1 ms of import per class. __post_init__ may store a field with
    object.__setattr__."""

    def __init_subclass__(cls):
        dataclasses.dataclass(cls, init=False, repr=False, eq=False)
        fields = dataclasses.fields(cls)
        cls._fields = tuple(f.name for f in fields)
        cls._defaults = {f.name: f.default for f in fields if f.default is not dataclasses.MISSING}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} positional arguments "
                            f"but {len(args)} were given")
        state = vars(self)  # filled in field order, which vars(self) keeps
        state.update(zip(names, args))
        for name in names[len(args):]:
            if name in kwargs:
                state[name] = kwargs.pop(name)
            elif name in cls._defaults:
                state[name] = cls._defaults[name]
            else:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
        if kwargs:  # a name given twice, or no field's
            name = next(iter(kwargs))
            problem = "multiple values for" if name in state else "an unexpected keyword"
            raise TypeError(f"{cls.__name__}() got {problem} argument {name!r}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"
