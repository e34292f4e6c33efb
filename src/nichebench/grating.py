"""Varied-line-spacing holographic grating design objective.

The design problem has eight variables (four recording angles in radians,
four source/mirror distances in mm). A recording model maps a design to
the four groove-density expansion values (j10, j20, j30, j40); those are
turned into residuals against the target groove-density coefficients and
combined into a scalar squared-error objective that is minimized.

The optical closed forms of j10..j40 depend on proprietary ray-tracing
derivations, so this module exposes them behind the ``RecordingModel``
callable interface and ships :class:`SyntheticRecordingModel`, a smooth
non-physical stand-in with a known zero-error design and a multimodal
landscape, which is what the benchmark harness runs against.

All lengths are stored in mm (the recording wavelength included), which
keeps the first residual in lines/mm.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import Protocol

import numpy as np

from .core import check_positive, check_real
from .problems import BoundedProblem

__all__ = [
    "GratingParams",
    "RecordingModel",
    "SyntheticRecordingModel",
    "DESIGN_VARIABLE_NAMES",
    "default_bounds",
    "default_anchor",
    "load_profile",
    "residuals",
    "integrated_square_error",
    "perfect_recording_values",
    "grating_problem",
    "make_default_problem",
]

logger = logging.getLogger(__name__)

DESIGN_VARIABLE_NAMES = (
    "gamma", "eta_c", "delta", "eta_d", "p_c", "q_c", "p_d", "q_d",
)
_PARAM_FIELDS = ("n0", "b2", "b3", "b4", "w0", "lambda0")


@dataclass(frozen=True)
class GratingParams:
    """Recording constants: target groove-density coefficients and geometry.

    ``n0`` is the central groove density (lines/mm), ``b2``/``b3``/``b4``
    the higher-order density coefficients (1/mm, 1/mm^2, 1/mm^3), ``w0``
    the grating half-width (mm) and ``lambda0`` the recording wavelength
    (mm); each is stored as a float and must be finite (``core.check_real``);
    ``n0``, ``w0``, ``lambda0`` and the two ``mirror_radii`` (exactly two)
    must also be positive (``core.check_positive``).
    """

    n0: float
    b2: float
    b3: float
    b4: float
    w0: float
    lambda0: float
    mirror_radii: tuple[float, float] = (1000.0, 1000.0)

    def __post_init__(self):
        for name in _PARAM_FIELDS:
            check = check_positive if name in ("n0", "w0", "lambda0") else check_real
            object.__setattr__(self, name, check(name, getattr(self, name)))
        try:
            radii = tuple(self.mirror_radii)
        except TypeError:  # a scalar
            radii = ()
        if len(radii) != 2:
            raise ValueError(f"mirror_radii must be two numbers, got {self.mirror_radii!r}")
        object.__setattr__(self, "mirror_radii", tuple(check_positive("mirror_radii", r)
                                                       for r in radii))


class RecordingModel(Protocol):
    """Pure mapping from a design vector and recording constants to
    (j10, j20, j30, j40).

    A model may also have ``many(designs, params)``, mapping ``(m, 8)``
    design rows to the ``(m, 4)`` array of their recording values, each
    row the same bits as ``__call__`` gives for that design; the grating
    objective then evaluates a batch of rows in one call. A model
    without it is evaluated row by row.
    """

    def __call__(self, design: np.ndarray, params: GratingParams) -> tuple[float, float, float, float]:
        ...


def default_bounds() -> np.ndarray:
    """Design-variable box: angles in [-pi/2, pi/2], distances in [100, 2000] mm."""
    angle = [-math.pi / 2.0, math.pi / 2.0]
    distance = [100.0, 2000.0]
    return np.array([angle] * 4 + [distance] * 4)


def default_anchor() -> np.ndarray:
    """The zero-error design the synthetic model is anchored at, in
    DESIGN_VARIABLE_NAMES order: gamma=0.35, eta_c=-0.20, delta=0.12,
    eta_d=-0.40 rad; p_c=850, q_c=1150, p_d=700, q_d=1250 mm."""
    return np.array([0.35, -0.20, 0.12, -0.40, 850.0, 1150.0, 700.0, 1250.0])


def _pair(name: str, value) -> list[float]:
    """A JSON list of two numbers, finite or not (the caller checks the
    range), as floats, or a ValueError naming ``name``."""
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"{name} must be a list of two numbers, got {value!r}")
    return [check_real(name, v, finite=False) for v in value]


def _known_keys(name: str, mapping: dict, known) -> None:
    """A ValueError naming the first key of ``mapping`` not in ``known``."""
    for key in mapping:
        if key not in known:
            raise ValueError(f"unknown {name} key {key!r}; known keys: {', '.join(known)}")


def load_profile(path=None) -> tuple[GratingParams, np.ndarray]:
    """Load a parameter profile (JSON) and its design-variable bounds.

    Without a path the packaged default profile is returned. Schema::

        {
          "n0": 1400.0, "b2": 8.2453e-4, "b3": 3.0015e-7, "b4": 0.0,
          "w0": 90.0, "lambda0": 4.131e-4,
          "mirror_radii": [1000.0, 1000.0],
          "bounds": {"angle": [lo, hi], "distance": [lo, hi]}
        }

    The six constants are required; ``mirror_radii``, ``bounds`` and
    either bound may be left out for the defaults. A key outside the
    schema raises ValueError naming it, so a misspelt key cannot fall back
    to a default unnoticed.
    """
    if path is None:
        text = resources.files("nichebench").joinpath("data/grating_default.json").read_text()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    raw = json.loads(text)
    if not isinstance(raw, dict):
        raise ValueError(f"the profile must be a JSON object, got {type(raw).__name__}")
    _known_keys("profile", raw, _PARAM_FIELDS + ("mirror_radii", "bounds"))
    radii = tuple(_pair("mirror_radii", raw.get("mirror_radii", [1000.0, 1000.0])))
    params = GratingParams(**{name: raw.get(name) for name in _PARAM_FIELDS}, mirror_radii=radii)
    bounds_cfg = raw.get("bounds", {})
    if not isinstance(bounds_cfg, dict):
        raise ValueError(f"bounds must be an object of [lo, hi] pairs, got {bounds_cfg!r}")
    _known_keys("bounds", bounds_cfg, ("angle", "distance"))
    fallback = default_bounds()  # rows 0-3 are the angles, 4-7 the distances
    angle = _pair("bounds.angle", bounds_cfg.get("angle", fallback[0].tolist()))
    distance = _pair("bounds.distance", bounds_cfg.get("distance", fallback[4].tolist()))
    bounds = np.array([angle] * 4 + [distance] * 4)
    return params, bounds


def residuals(j: tuple[float, float, float, float], params: GratingParams) -> tuple[float, float, float, float]:
    """Groove-density residuals of a recorded design against the targets."""
    j10, j20, j30, j40 = j
    lam = params.lambda0
    r1 = j10 / lam - params.n0
    r2 = j20 / lam - params.n0 * params.b2
    r3 = 3.0 * j30 / (2.0 * lam) - params.n0 * params.b3
    r4 = j40 / (2.0 * lam) - params.n0 * params.b4
    return r1, r2, r3, r4


def integrated_square_error(r: tuple[float, float, float, float], half_width: float) -> float:
    """Scalar design error from the four residuals.

    Equals the integral of the squared groove-density error polynomial
    r1 + r2 w + r3 w^2 + r4 w^3 over w in [-w0, w0], up to the constant
    factor 2 w0, so it is nonnegative in exact arithmetic.
    """
    if half_width <= 0:
        raise ValueError("half_width must be positive")
    r1, r2, r3, r4 = r
    w2 = half_width * half_width
    w4 = w2 * w2
    w6 = w4 * w2
    return (
        r1 * r1
        + w2 * (2.0 * r1 * r3 + r2 * r2) / 3.0
        + w4 * (r3 * r3 + 2.0 * r2 * r4) / 5.0
        + w6 * r4 * r4 / 7.0
    )


def perfect_recording_values(params: GratingParams) -> tuple[float, float, float, float]:
    """The (j10, j20, j30, j40) tuple that zeroes every residual."""
    lam = params.lambda0
    return (
        params.n0 * lam,
        params.n0 * params.b2 * lam,
        2.0 * params.n0 * params.b3 * lam / 3.0,
        2.0 * params.n0 * params.b4 * lam,
    )


# Perturbation constants of the synthetic model. Rows belong to j10..j40,
# columns to the design variables in DESIGN_VARIABLE_NAMES order. Angle
# frequencies are per radian, distance frequencies per mm (periods of a few
# hundred mm across the [100, 2000] box).
SYNTHETIC_FREQUENCIES = np.array(
    [
        [2.0, 3.0, 2.5, 1.5, 0.0041, 0.0059, 0.0031, 0.0047],
        [3.0, 1.0, 4.0, 2.0, 0.0067, 0.0029, 0.0053, 0.0037],
        [1.5, 2.5, 3.5, 4.5, 0.0023, 0.0043, 0.0061, 0.0071],
        [4.0, 3.5, 1.0, 2.5, 0.0079, 0.0019, 0.0047, 0.0029],
    ]
)

# Relative perturbation amplitudes per recording value. The ratios make
# every residual contribute equally to the error once the half-width
# weights are applied; the overall scale puts the error surface roughly in
# [1e-6, 1e-1] across the box, matching the magnitudes the design metrics
# (peak threshold 1e-4) are defined around.
SYNTHETIC_AMPLITUDES = np.array([2.2e-5, 5.4e-4, 2.1e-2, 1.6e-2])


@dataclass(frozen=True)
class SyntheticRecordingModel:
    """Smooth multimodal stand-in for the optical recording computation.

    Each recording value is the zero-residual value scaled by
    ``1 + amplitude_i * sum_k sin(freq_ik * (x_k - anchor_k))``, so the
    anchor design reproduces the zero-residual values exactly while the
    sine sums create further zero-error designs across the box. This model
    is a test double and has no physical meaning. :meth:`many` is the
    same expression broadcast over rows of designs.
    """

    anchor: np.ndarray = field(default_factory=default_anchor)
    amplitudes: np.ndarray = field(default_factory=SYNTHETIC_AMPLITUDES.copy)
    frequencies: np.ndarray = field(default_factory=SYNTHETIC_FREQUENCIES.copy)

    def __call__(self, design: np.ndarray, params: GratingParams) -> tuple[float, float, float, float]:
        x = np.asarray(design, dtype=float)
        if x.shape != self.anchor.shape:
            raise ValueError("design vector has wrong dimension")
        waves = self.frequencies * (x - self.anchor)
        # the four sine sums in NumPy, the rest in Python floats: the same
        # IEEE operations as :meth:`many`'s arrays, without their call overhead
        s1, s2, s3, s4 = np.sin(waves).sum(axis=1).tolist()
        a1, a2, a3, a4 = self.amplitudes.tolist()
        p1, p2, p3, p4 = perfect_recording_values(params)
        return (p1 * (1.0 + a1 * s1), p2 * (1.0 + a2 * s2),
                p3 * (1.0 + a3 * s3), p4 * (1.0 + a4 * s4))

    def many(self, designs: np.ndarray, params: GratingParams) -> np.ndarray:
        """The ``(m, 4)`` recording values of ``(m, 8)`` design rows."""
        x = np.asarray(designs, dtype=float)
        if x.ndim != 2 or x.shape[1:] != self.anchor.shape:
            raise ValueError("design vector has wrong dimension")
        # (m, 4, 8): each row sums its 8 sines as the scalar call does, so
        # every value keeps its bits
        waves = self.frequencies * (x - self.anchor)[:, None, :]
        factors = 1.0 + self.amplitudes * np.sin(waves).sum(axis=2)
        return np.array(perfect_recording_values(params)) * factors


class _GratingObjective:
    """Picklable objective: error of the recorded design, one design per
    call or a batch of rows through :meth:`many`. Logs one warning, on
    either path, if floating-point cancellation ever produces a negative
    value: once per objective object, and the harness builds one per grid
    and sends a copy with each pool chunk, so once per serial grid or per
    pool chunk."""

    def __init__(self, model: RecordingModel, params: GratingParams):
        self.model = model
        self.params = params
        self._warned = False

    def __call__(self, design: np.ndarray) -> float:
        j = self.model(design, self.params)
        value = integrated_square_error(residuals(j, self.params), self.params.w0)
        if value < 0.0:
            self._warn_negative(value)
        return value

    def many(self, designs: np.ndarray) -> np.ndarray:
        """The ``(m,)`` errors of ``(m, 8)`` design rows, the same bits as
        one call per row: the model's ``many``, then the residual and error
        arithmetic on arrays; one call per row for a model without it."""
        batch = getattr(self.model, "many", None)
        if batch is None:
            return np.array([self(design) for design in designs], dtype=float)
        j = batch(designs, self.params)
        values = integrated_square_error(residuals(j.T, self.params), self.params.w0)
        negative = values[values < 0.0]
        if negative.size:
            self._warn_negative(negative[0])
        return values

    def _warn_negative(self, value: float) -> None:
        if not self._warned:
            self._warned = True
            logger.warning(
                "grating error came out negative (%.3e); the recording model "
                "is numerically inconsistent with the squared-error form", value
            )


def grating_problem(model: RecordingModel, params: GratingParams,
                    bounds: np.ndarray | None = None) -> BoundedProblem:
    """8-dimensional minimization problem over the design box.

    The landscape is unknown in general, so ``known_peaks`` is empty and
    populations are scored with best-fitness and distinct-peak counts.
    """
    if bounds is None:
        bounds = default_bounds()
    return BoundedProblem(
        name="grating",
        bounds=np.asarray(bounds, dtype=float),
        direction="min",
        objective=_GratingObjective(model, params),
        known_peaks=(),
    )


def make_default_problem(profile_path=None) -> BoundedProblem:
    """Grating problem with the default (or given) profile and the synthetic
    recording model anchored at the default design."""
    params, bounds = load_profile(profile_path)
    return grating_problem(SyntheticRecordingModel(), params, bounds)
