"""Discrete misalignment classes laid out on an ellipse.

Class 0 is the aligned case (0, 0); the remaining N-1 classes sit at
equally spaced parameter angles on an ellipse, optionally rotated clockwise.
Screen coordinates: x right, y down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class OffsetClass:
    """One misalignment class: integer pixel displacement of the depth plane."""

    id: int
    dx: int
    dy: int


def _round_half_away(x: float) -> int:
    return math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)


def generate_offsets(n_classes: int, major_axis: float, minor_axis: float,
                     rotation_deg: float = 0.0) -> list[OffsetClass]:
    """Class 0 at (0,0); classes 1..N-1 at parameter angles (i-1)*360/(N-1)
    on the ellipse with the given axes, rotated clockwise by rotation_deg,
    rounded to integers (ties away from zero).

    Raises if two classes collapse onto the same pixel after rounding.
    """
    if n_classes < 2:
        raise ValueError(f"need at least 2 offset classes, got {n_classes}")
    if not (0 < major_axis < math.inf and 0 < minor_axis < math.inf):
        raise ValueError(f"axes must be positive and finite, got major={major_axis}, "
                         f"minor={minor_axis}")
    if not math.isfinite(rotation_deg):
        raise ValueError(f"rotation must be finite, got {rotation_deg}")

    a = major_axis / 2.0
    b = minor_axis / 2.0
    phi = math.radians(rotation_deg)
    cos_phi, sin_phi = math.cos(phi), math.sin(phi)

    # each class is checked against the earlier ones as it is made, so a
    # count the ellipse cannot hold fails at its first collision
    offsets = [OffsetClass(id=0, dx=0, dy=0)]
    seen = {(0, 0): 0}
    for i in range(1, n_classes):
        theta = math.radians((i - 1) * 360.0 / (n_classes - 1))
        x = a * math.cos(theta)
        y = b * math.sin(theta)
        key = (_round_half_away(x * cos_phi + y * sin_phi),
               _round_half_away(-x * sin_phi + y * cos_phi))
        if key in seen:
            raise ValueError(
                f"degenerate axes: classes {seen[key]} and {i} both round to {key}")
        seen[key] = i
        offsets.append(OffsetClass(id=i, dx=key[0], dy=key[1]))
    return offsets
