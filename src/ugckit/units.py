"""Unit conversion helpers.

Angles travel through the toolkit in degrees and lengths in millimeters;
torque math switches to SI (N, m) only inside the ring-mechanics module.
Keeping the conversions in one place makes that boundary testable.

finite_float is the one finiteness check every input boundary (CSV cells,
design-spec numbers, CLI flags and joint-model queries) uses to turn a value
into a number. Design-spec numbers and joint-model queries test the type
first, so a bool or a string never reaches it there.
"""

import math

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
