"""Unit conversion helpers and the one typed-number rule.

Angles travel through the toolkit in degrees and lengths in millimeters;
torque math switches to SI (N, m) only inside the ring-mechanics module.
Keeping the conversions in one place makes that boundary testable.

checked is the one typed-number rule of every library input: design-spec
fields, kernel hyperparameters and noise, joint thickness, bench samples,
the averaging bin, ring geometry and joint-model queries. A bool, a string
or bytes is refused there, though float() reads each. Archive loads apply
its type test, is_number, to each leaf. finite_float reads CSV cells and
CLI flags, which are text.
"""

import math
import numbers

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
    not a number of that kind (is_number), is not finite, or breaks rule."""
    if not is_number(value, kind):
        raise ValueError(f"{label}: expected {kind.__name__}")
    try:
        value = int(value) if kind is int else finite_float(value)
    except ValueError:
        raise ValueError(f"{label}: must be a finite number") from None
    if not rule[0](value):
        raise ValueError(f"{label}: {rule[1]}")
    return value
