"""
Observation windows, window erosion, and the volumes and direction test
of the lag sets on the space-time domain. The tessellation metric lives in
`intensity`, and the lag sets themselves in `second_order`.

Conventions used throughout the package:

- every lag set (cylinder, cone) is closed,
- observation windows are axis-aligned boxes; eroding a box by (r, t)
  shrinks each spatial axis by r on both ends and the temporal interval
  by t on both ends, which for boxes coincides with the Euclidean
  erosion {x : d(x, boundary) >= r}.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Window",
    "ErosionError",
    "cylinder_volume",
    "cone_volume",
    "unit_ball_volume",
    "direction_in_cone",
    "erode_window",
]


class ErosionError(ValueError):
    """Raised when eroding a window by (r, t) would empty it."""


@dataclass(frozen=True)
class Window:
    """Axis-aligned observation window: a spatial box times a time interval.

    Parameters
    ----------
    spatial : tuple of (lo, hi) pairs
        Per-axis spatial bounds; lo < hi on every axis.
    temporal : (lo, hi) pair
        Temporal bounds; lo < hi.
    """

    spatial: tuple
    temporal: tuple

    def __post_init__(self):
        spatial = tuple((float(lo), float(hi)) for lo, hi in self.spatial)
        temporal = (float(self.temporal[0]), float(self.temporal[1]))
        object.__setattr__(self, "spatial", spatial)
        object.__setattr__(self, "temporal", temporal)
        for lo, hi in spatial + (temporal,):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("window bounds must be finite")
            if not lo < hi:
                raise ValueError(f"window bounds must satisfy lo < hi, got ({lo}, {hi})")

    @property
    def dim(self):
        return len(self.spatial)

    @property
    def spatial_volume(self):
        vol = 1.0
        for lo, hi in self.spatial:
            vol *= hi - lo
        return vol

    @property
    def temporal_length(self):
        return self.temporal[1] - self.temporal[0]

    @property
    def volume(self):
        return self.spatial_volume * self.temporal_length

    def spatial_bounds(self):
        """Spatial bounds as (lo, hi) float arrays of shape (d,)."""
        arr = np.asarray(self.spatial, dtype=float)
        return arr[:, 0].copy(), arr[:, 1].copy()

    def contains(self, x, t):
        """Closed-window membership for arrays x (N, d) and t (N,)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        t = np.atleast_1d(np.asarray(t, dtype=float))
        lo, hi = self.spatial_bounds()
        ok = np.all((x >= lo) & (x <= hi), axis=1)
        ok &= (t >= self.temporal[0]) & (t <= self.temporal[1])
        return ok


def unit_ball_volume(d):
    """Lebesgue volume of the unit Euclidean ball in R^d."""
    d = int(d)
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def direction_in_cone(dx, dy, phi, psi):
    """Vectorized membership of displacement directions in the closed double
    wedge [phi, psi] union [phi+pi, psi+pi]. Zero displacements belong to
    every cone (the apex is always included)."""
    dx = np.asarray(dx, dtype=float)
    dy = np.asarray(dy, dtype=float)
    theta = np.arctan2(dy, dx)
    # fold opposite directions together; psi - phi == pi covers everything
    rel = np.mod(theta - phi, math.pi)
    span = psi - phi
    if span >= math.pi:
        inside = np.ones(theta.shape, dtype=bool)
    else:
        # values just below pi are wrapped zeros (floating-point mod artifact)
        inside = (rel <= span) | (rel >= math.pi - 1e-12)
    inside = inside | ((dx == 0.0) & (dy == 0.0))
    return inside


def cylinder_volume(r, t, d):
    """Lebesgue volume 2 t r^d omega_d of a cylinder with spatial radius r,
    temporal half-height t, in spatial dimension d."""
    if not (r >= 0 and t >= 0):  # NaN fails too
        raise ValueError("cylinder volume requires r >= 0 and t >= 0")
    return 2.0 * t * r ** int(d) * unit_ball_volume(d)


def cone_volume(phi, psi, r, t):
    """Lebesgue volume of the closed double cone: the double wedge spans an
    angle (psi - phi) on each side, giving spatial area (psi - phi) r^2,
    times the temporal extent 2t."""
    if not phi < psi <= phi + math.pi:
        raise ValueError("psi must lie in (phi, phi + pi]")
    if not (r >= 0 and t >= 0):  # NaN fails too
        raise ValueError("cone volume requires r >= 0 and t >= 0")
    return (psi - phi) * r * r * 2.0 * t


def erode_window(w, r, t):
    """Shrink a window by r on both ends of every spatial axis and by t on
    both ends of the temporal interval.

    Raises
    ------
    ErosionError
        If the eroded window would be empty or degenerate; this error drives
        the maximum admissible (r, t) lag grid.
    """
    if not (r >= 0 and t >= 0):  # NaN fails too
        raise ValueError("erosion requires r >= 0 and t >= 0")
    spatial = tuple((lo + r, hi - r) for lo, hi in w.spatial)
    temporal = (w.temporal[0] + t, w.temporal[1] - t)
    for lo, hi in spatial + (temporal,):
        if not lo < hi:
            raise ErosionError(
                f"erosion exceeds window: (r={r}, t={t}) empties an axis"
            )
    return Window(spatial=spatial, temporal=temporal)
