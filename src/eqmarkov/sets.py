"""Geometry layer: the compact sets whose equilibrium measures we compute.

Five shapes are supported: finite unions of closed real intervals, finite
unions of closed arcs on the unit circle (parametrized by angle in [-pi, pi)),
circles of any radius/center, polynomial lemniscates {z: |T_N(z)| = 1}, and
2pi-periodic real sets (interval unions read modulo 2pi, whose circle image is
an arc union).

Conventions used throughout the package:

  * Endpoint indices are 1-based: a_1 < a_2 < ... < a_{2m}; band i is
    [a_{2i-1}, a_{2i}] and gap i separates band i from band i+1.
  * Touching bands are rejected, not merged: a degenerate or glued band would
    break the 2m-distinct-endpoint structure the density formulas assume.
  * The full circle is never an ArcUnion (its density has no endpoints); use
    Circle instead.
  * Distances between a point of an arc set and an arc endpoint are chordal,
    |z - A_j|; on the unit circle that is 2 sin(angular distance / 2).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .config import DEFAULT_TOL
from .errors import InvalidArgumentError

TWO_PI = 2.0 * math.pi


class Location(NamedTuple):
    kind: str            # interior | endpoint | gap | outside
    index: int | None    # 1-based endpoint index when kind == "endpoint"


def _validate_even_increasing(values: np.ndarray, what: str) -> None:
    if values.ndim != 1 or values.size < 2 or values.size % 2 != 0:
        raise InvalidArgumentError(f"{what}: need an even number (>= 2) of values")
    if not np.all(np.isfinite(values)):
        raise InvalidArgumentError(f"{what}: values must be finite")
    if not np.all(np.diff(values) > 0):
        raise InvalidArgumentError(f"{what}: values must be strictly increasing (no touching bands)")


@dataclass(frozen=True)
class IntervalUnion:
    endpoints: tuple[float, ...]

    def __post_init__(self):
        pts = np.asarray(self.endpoints, dtype=float)
        _validate_even_increasing(pts, "IntervalUnion")
        object.__setattr__(self, "endpoints", tuple(pts.tolist()))

    @property
    def m(self) -> int:
        return len(self.endpoints) // 2

    @property
    def bands(self) -> tuple[tuple[float, float], ...]:
        e = self.endpoints
        return tuple([(e[2 * i], e[2 * i + 1]) for i in range(self.m)])

    @property
    def gaps(self) -> tuple[tuple[float, float], ...]:
        e = self.endpoints
        return tuple([(e[2 * i + 1], e[2 * i + 2]) for i in range(self.m - 1)])

    @property
    def covering_interval(self) -> tuple[float, float]:
        return self.endpoints[0], self.endpoints[-1]

    def locate(self, x: float) -> Location:
        return locate(self, x)


@dataclass(frozen=True)
class ArcUnion:
    angles: tuple[float, ...]

    def __post_init__(self):
        ang = np.asarray(self.angles, dtype=float)
        _validate_even_increasing(ang, "ArcUnion")
        if ang[0] < -math.pi or ang[-1] >= math.pi:
            raise InvalidArgumentError("ArcUnion: angles must lie in [-pi, pi)")
        total = float(np.sum(ang[1::2] - ang[::2]))
        if total >= TWO_PI:
            raise InvalidArgumentError("ArcUnion: total angular measure must be < 2*pi")
        object.__setattr__(self, "angles", tuple(ang.tolist()))

    @property
    def m(self) -> int:
        return len(self.angles) // 2

    @property
    def arcs(self) -> tuple[tuple[float, float], ...]:
        a = self.angles
        return tuple([(a[2 * i], a[2 * i + 1]) for i in range(self.m)])

    def locate_angle(self, theta: float) -> Location:
        """Classify an angle (wrapped to [-pi, pi)) against the arcs."""
        t = wrap_angle(_finite(theta))
        for idx, a in enumerate(self.angles):
            if t == a:
                return Location("endpoint", idx + 1)
        for a, b in self.arcs:
            if a < t < b:
                return Location("interior", None)
        return Location("gap", None)


@dataclass(frozen=True)
class Circle:
    radius: float
    center: complex = 0j

    def __post_init__(self):
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise InvalidArgumentError("Circle: radius must be positive")
        object.__setattr__(self, "center", complex(self.center))

    def on_curve(self, z: complex, tol: float = DEFAULT_TOL.point_on_set) -> bool:
        return abs(abs(z - self.center) - self.radius) <= tol * max(1.0, self.radius)


@dataclass(frozen=True)
class Lemniscate:
    """Level set {z: |T(z)| = 1} of a polynomial T of degree N >= 1.

    coefficients are ascending (c_0 + c_1 z + ... + c_N z^N), complex allowed.
    """

    coefficients: tuple[complex, ...]

    def __post_init__(self):
        coefs = tuple([complex(c) for c in self.coefficients])
        if len(coefs) < 2:
            raise InvalidArgumentError("Lemniscate: polynomial degree must be >= 1")
        if coefs[-1] == 0:
            raise InvalidArgumentError("Lemniscate: leading coefficient must be nonzero")
        object.__setattr__(self, "coefficients", coefs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def value(self, z: complex) -> complex:
        return complex(np.polynomial.polynomial.polyval(z, np.asarray(self.coefficients)))

    def derivative_value(self, z: complex) -> complex:
        dcoef = np.polynomial.polynomial.polyder(np.asarray(self.coefficients))
        return complex(np.polynomial.polynomial.polyval(z, dcoef))

    def on_curve(self, z: complex, tol: float = 1e-10) -> bool:
        return abs(abs(self.value(z)) - 1.0) <= tol


@dataclass(frozen=True)
class PeriodicSet:
    """An interval union inside [-pi, pi), understood 2pi-periodically."""

    base: IntervalUnion

    def __post_init__(self):
        e = self.base.endpoints
        if e[0] < -math.pi or e[-1] >= math.pi:
            raise InvalidArgumentError("PeriodicSet: endpoints must lie in [-pi, pi)")

    @property
    def m(self) -> int:
        return self.base.m

    def locate(self, theta: float) -> Location:
        return locate(self.base, wrap_angle(_finite(theta)))


SetLike = Union[IntervalUnion, ArcUnion, Circle, Lemniscate, PeriodicSet]


def wrap_angle(theta: float) -> float:
    """Wrap to [-pi, pi)."""
    t = math.remainder(theta, TWO_PI)
    if t >= math.pi:
        t -= TWO_PI
    elif t < -math.pi:
        t += TWO_PI
    return t


def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """wrap_angle for an array, to the same floats: fmod is exact, and so is
    each subtraction of 2pi below, by Sterbenz's lemma."""
    with np.errstate(invalid="ignore"):         # an infinite angle becomes NaN
        t = np.fmod(theta, TWO_PI)
    t = np.where(t >= math.pi, t - TWO_PI, t)
    return np.where(t < -math.pi, t + TWO_PI, t)


def gamma_of(periodic: PeriodicSet) -> ArcUnion:
    """Circle image {e^{it}: t in E} of a periodic set."""
    return ArcUnion(periodic.base.endpoints)


def affine_image(e: IntervalUnion, scale: float, shift: float = 0.0) -> IntervalUnion:
    if scale == 0 or not np.isfinite(scale) or not np.isfinite(shift):
        raise InvalidArgumentError("affine_image: scale must be nonzero and finite")
    pts = [scale * x + shift for x in e.endpoints]
    if scale < 0:
        pts.reverse()
    return IntervalUnion(tuple(pts))


def _finite(x: float) -> float:
    if not math.isfinite(x):
        raise InvalidArgumentError("locate: point must be finite")
    return x


def locate(e: IntervalUnion, x: float) -> Location:
    _finite(x)
    pts = e.endpoints
    for j, a in enumerate(pts):
        if x == a:
            return Location("endpoint", j + 1)
    if x < pts[0] or x > pts[-1]:
        return Location("outside", None)
    for a, b in e.bands:
        if a < x < b:
            return Location("interior", None)
    return Location("gap", None)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def _complex_from_json(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise InvalidArgumentError(f"cannot read complex number from {v!r}")


def set_from_json(data) -> SetLike:
    """Build a set from its JSON description (dict or JSON text)."""
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise InvalidArgumentError(f"malformed set JSON: {exc}") from exc
    if not isinstance(data, dict) or "type" not in data:
        raise InvalidArgumentError("set JSON must be an object with a 'type' key")
    kind = data["type"]
    try:
        if kind == "intervals":
            return IntervalUnion(tuple(data["endpoints"]))
        if kind == "arcs":
            return ArcUnion(tuple(data["angles"]))
        if kind == "circle":
            center = _complex_from_json(data.get("center", 0.0))
            return Circle(float(data["r"]), center)
        if kind == "lemniscate":
            return Lemniscate(tuple([_complex_from_json(c) for c in data["coeffs"]]))
        if kind == "periodic":
            return PeriodicSet(IntervalUnion(tuple(data["endpoints"])))
    except KeyError as exc:
        raise InvalidArgumentError(f"set JSON of type {kind!r} missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"bad set JSON: {exc}") from exc
    raise InvalidArgumentError(f"unknown set type {kind!r}")


def set_to_json(s: SetLike) -> dict:
    if isinstance(s, IntervalUnion):
        return {"type": "intervals", "endpoints": list(s.endpoints)}
    if isinstance(s, ArcUnion):
        return {"type": "arcs", "angles": list(s.angles)}
    if isinstance(s, Circle):
        out = {"type": "circle", "r": s.radius}
        if s.center != 0:
            out["center"] = [s.center.real, s.center.imag]
        return out
    if isinstance(s, Lemniscate):
        coeffs = [c.real if c.imag == 0 else [c.real, c.imag] for c in s.coefficients]
        return {"type": "lemniscate", "coeffs": coeffs}
    if isinstance(s, PeriodicSet):
        return {"type": "periodic", "endpoints": list(s.base.endpoints)}
    raise InvalidArgumentError(f"cannot serialize {type(s).__name__}")
