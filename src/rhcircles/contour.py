"""Oriented circle systems: geometry, side labels, inversion, quadrature.

A contour is a finite union of pairwise disjoint circles.  Each circle is
oriented so that the union is the positively oriented boundary of an open
set (the plus region); the complement is the minus region.  Orientations
that do not label the plane consistently are rejected at build time rather
than patched up.

Nodes on every circle are equispaced in angle, which makes the trapezoid
rule spectrally accurate for analytic integrands and diagonalizes the
one-circle Cauchy projections in the Fourier basis.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import wraps
from typing import Iterable

import numpy as np

from .errors import OrientationError, OverlapError, SingularInversionError

CCW = "ccw"
CW = "cw"

_TWO_PI = 2.0 * np.pi


def _computed_once(method):
    """Cache a geometry method's result on its frozen instance.

    The result is handed out read-only, so a caller that writes into it
    fails loudly instead of corrupting every later use.
    """
    key = "_cached_" + method.__name__

    @wraps(method)
    def cached(self):
        try:
            return self.__dict__[key]
        except KeyError:
            out = method(self)
            if isinstance(out, np.ndarray):
                out.flags.writeable = False
            self.__dict__[key] = out
            return out

    return cached


@dataclass(frozen=True)
class Circle:
    """One oriented circle carrying an equispaced collocation grid.

    The node set is  center + radius*exp(2*pi*1j*k/node_count)  and nodes
    are stored in traversal order, so a clockwise circle lists the same
    points with decreasing angle.
    """

    center: complex
    radius: float
    orientation: str = CCW
    node_count: int = 64

    def __post_init__(self):
        object.__setattr__(self, "center", complex(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not np.isfinite(self.center):
            raise ValueError(f"center must be finite, got {self.center}")
        if not np.isfinite(self.radius) or self.radius <= 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if self.orientation not in (CCW, CW):
            raise ValueError(f"orientation must be {CCW!r} or {CW!r}")
        try:
            object.__setattr__(self, "node_count", operator.index(self.node_count))
        except TypeError:
            raise ValueError(
                f"node_count must be an integer, got {self.node_count!r}"
            ) from None
        if self.node_count < 4 or self.node_count % 2 != 0:
            raise ValueError("node_count must be even and at least 4")
        # the nodes, and every distance to a point of the circle, stay in
        # the double range (hypot gives inf where abs(center) would raise)
        reach = math.hypot(self.center.real, self.center.imag) + self.radius
        if not math.isfinite(reach):
            raise ValueError(f"circle leaves the double range: {self}")

    @property
    def sign(self) -> int:
        """+1 for counterclockwise traversal, -1 for clockwise."""
        return 1 if self.orientation == CCW else -1

    @_computed_once
    def angles(self) -> np.ndarray:
        k = np.arange(self.node_count)
        return self.sign * _TWO_PI * k / self.node_count

    @_computed_once
    def points(self) -> np.ndarray:
        return self.center + self.radius * np.exp(1j * self.angles())

    def point_at(self, angle) -> np.ndarray:
        return self.center + self.radius * np.exp(1j * np.asarray(angle))

    @_computed_once
    def weights(self) -> np.ndarray:
        """Trapezoid quadrature weights for integrals in dz.

        weight_k = 2*pi*1j*radius*exp(1j*theta_k)/node_count, signed by the
        traversal direction, so sum(f(z_k)*w_k) approximates the oriented
        contour integral of f.
        """
        return (_TWO_PI * 1j * self.sign / self.node_count) * (
            self.points() - self.center
        )

    def contains(self, z) -> np.ndarray | bool:
        return np.abs(np.asarray(z) - self.center) < self.radius

    def spacing(self) -> float:
        """Arc length between adjacent nodes."""
        return _TWO_PI * self.radius / self.node_count

    def distance(self, z) -> np.ndarray | float:
        """Distance from z to the circle's point set."""
        return np.abs(np.abs(np.asarray(z) - self.center) - self.radius)


def _set_distance(a: Circle, b: Circle) -> float:
    """Distance between the point sets of two circles; <= 0 means they meet."""
    d = abs(a.center - b.center)
    if d >= a.radius + b.radius:
        return d - a.radius - b.radius
    if d <= abs(a.radius - b.radius):
        return abs(a.radius - b.radius) - d
    return 0.0


@dataclass(frozen=True)
class ContourSystem:
    """Validated union of disjoint oriented circles with side labels.

    plus_inside[i] records whether the interior of circle i lies on the
    plus side; plus_at_infinity tells which side the unbounded component
    belongs to.  Build instances through build_contour, which performs the
    consistency checks.
    """

    circles: tuple[Circle, ...]
    plus_inside: tuple[bool, ...]
    plus_at_infinity: bool

    @property
    def total_nodes(self) -> int:
        return sum(c.node_count for c in self.circles)

    @_computed_once
    def node_slices(self) -> tuple[slice, ...]:
        out, start = [], 0
        for c in self.circles:
            out.append(slice(start, start + c.node_count))
            start += c.node_count
        return tuple(out)

    @_computed_once
    def all_points(self) -> np.ndarray:
        return np.concatenate([c.points() for c in self.circles])

    def winding(self, z) -> np.ndarray:
        """Winding number of the whole contour around off-contour point(s)."""
        return sum(c.sign * c.contains(z) for c in self.circles)

    def in_omega_plus(self, z) -> np.ndarray:
        """True where z (off the contour) lies in the plus region."""
        return self.winding(z) + int(self.plus_at_infinity) == 1

    def find_circle(self, center, radius, tol: float) -> int | None:
        """Index of the circle matching the given geometry, if any."""
        for i, c in enumerate(self.circles):
            scale = max(abs(c.center), c.radius, 1.0)
            if (
                abs(c.center - center) <= tol * scale
                and abs(c.radius - radius) <= tol * scale
            ):
                return i
        return None

    def unit_circle_index(self, tol: float) -> int | None:
        return self.find_circle(0.0, 1.0, tol)


def build_contour(circles: Iterable[Circle]) -> ContourSystem:
    """Validate disjointness and orientation consistency, label the sides.

    The orientations must make the union the positively oriented boundary
    of an open set: walking any circle in its stated direction keeps the
    plus region on the left.  Equivalently the winding number of the union
    plus a 0/1 constant for the unbounded component is the characteristic
    function of the plus region.  Exactly one choice of that constant can
    work; if none does, the labeling is contradictory.
    """
    circles = tuple(circles)
    if not circles:
        raise ValueError("contour system needs at least one circle")
    for i in range(len(circles)):
        for j in range(i + 1, len(circles)):
            if _set_distance(circles[i], circles[j]) <= 0.0:
                raise OverlapError(
                    f"circles {i} and {j} intersect or touch: "
                    f"{circles[i]} vs {circles[j]}"
                )

    # one probe point just inside and just outside each circle reaches every
    # complementary component that has a circle on its boundary
    probes = []
    for i, c in enumerate(circles):
        gaps = [_set_distance(c, o) for j, o in enumerate(circles) if j != i]
        delta = 0.5 * min([c.radius] + gaps) if gaps else 0.5 * c.radius
        probes.append(c.center + (c.radius - delta))
        probes.append(c.center + (c.radius + delta))

    def chi(z, at_inf: int) -> int:
        return sum(c.sign * bool(c.contains(z)) for c in circles) + at_inf

    valid = [
        at_inf
        for at_inf in (0, 1)
        if all(chi(z, at_inf) in (0, 1) for z in probes)
    ]
    if len(valid) != 1:
        raise OrientationError(
            "circle orientations do not cut the plane into a plus and a "
            "minus region (winding numbers leave some component unlabeled)"
        )
    plus_inside = tuple(c.sign == 1 for c in circles)
    return ContourSystem(circles, plus_inside, bool(valid[0]))


def invert_circle(c: Circle) -> Circle:
    """Image of a circle under inversion z -> 1/conj(z) in the unit circle.

    A circle with center a and radius r, not passing through the origin,
    maps to the circle with center a/(|a|^2 - r^2) and radius
    r/||a|^2 - r^2|.  The traversal direction flips exactly when the
    original circle does not enclose the origin.  The image carries a fresh
    equispaced grid with the same node count; nothing is interpolated.
    The arithmetic is that of doubles, and an image that leaves their
    range (|a| + r beyond about 1e154, or a radius that underflows) is
    refused too.
    """
    a, r = np.float64(abs(c.center)), np.float64(c.radius)
    with np.errstate(all="ignore"):
        d, scale = float(a**2 - r**2), float((a + r) ** 2)
    if np.isfinite(scale) and abs(d) <= 1e-13 * scale:
        raise SingularInversionError(
            f"circle through the origin has no circle image: {c}"
        )
    if not (np.isfinite(scale) and c.radius / abs(d) > 0.0):
        raise SingularInversionError(
            f"circle's image leaves the double range: {c}"
        )
    flip = not c.contains(0.0)
    orientation = c.orientation
    if flip:
        orientation = CW if c.orientation == CCW else CCW
    return Circle(c.center / d, c.radius / abs(d), orientation, c.node_count)


def unit_circle(orientation: str = CCW, node_count: int = 64) -> Circle:
    return Circle(0.0, 1.0, orientation, node_count)


def off_contour_points(
    system: ContourSystem,
    count: int,
    rel_margin: float = 0.35,
    r_min: float = 0.05,
    r_max: float = 10.0,
) -> np.ndarray:
    """Deterministic off-contour probe points with relative clearance.

    Walks a logarithmic spiral about the origin between the two radii and
    keeps points whose distance to every circle exceeds rel_margin times
    that circle's radius.  Raises if the requested count cannot be
    collected, which signals that the margins leave too little room, or
    is negative; a count of 0 gives an empty array.
    """
    if count < 0:
        raise ValueError(f"probe point count must be non-negative, got {count}")
    if count == 0:
        return np.empty(0, dtype=np.complex128)
    out = []
    golden = np.pi * (3.0 - np.sqrt(5.0))
    n_cand = max(64 * count, 512)
    for k in range(n_cand):
        r = r_min * (r_max / r_min) ** (k / (n_cand - 1.0))
        z = r * np.exp(1j * golden * k)
        if all(c.distance(z) >= rel_margin * c.radius for c in system.circles):
            out.append(z)
            if len(out) == count:
                return np.asarray(out)
    raise ValueError(
        f"could only place {len(out)} of {count} probe points with "
        f"relative margin {rel_margin}"
    )
