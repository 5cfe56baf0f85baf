"""Geometric multipath channel simulation on a 2D floor plan.

The propagation model is deliberately small: a line-of-sight ray plus
first-order specular reflections off line-segment reflectors, with opaque
line-segment blockers. Each surviving ray becomes a propagation path with
an angle of arrival at a uniform linear array, a free-space amplitude that
decays as 1 / path length, and a delay quantized to the OFDM sample grid.
CSI synthesis stacks the per-path rank-one contributions.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DelayOverflow, FormatError, ZeroDistance

logger = logging.getLogger(__name__)

SPEED_OF_LIGHT = 299792458.0


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear array at the base station.

    Attributes:
        n_antennas: number of array elements.
        wavelength: carrier wavelength in meters.
        element_spacing: inter-element spacing in meters; defaults to half
            the wavelength.
    """

    n_antennas: int
    wavelength: float
    element_spacing: float | None = None

    def __post_init__(self):
        if self.n_antennas < 1:
            raise ValueError("n_antennas must be >= 1")
        if self.wavelength <= 0.0:
            raise ValueError("wavelength must be positive")
        if self.element_spacing is None:
            object.__setattr__(self, "element_spacing", self.wavelength / 2.0)
        if self.element_spacing <= 0.0:
            raise ValueError("element_spacing must be positive")


@dataclass(frozen=True)
class OfdmConfig:
    """OFDM sampling grid: subcarrier count and bandwidth in Hz."""

    n_subcarriers: int
    bandwidth: float

    def __post_init__(self):
        if self.n_subcarriers < 1:
            raise ValueError("n_subcarriers must be >= 1")
        if self.bandwidth <= 0.0:
            raise ValueError("bandwidth must be positive")

    @property
    def sample_duration(self) -> float:
        return 1.0 / self.bandwidth


@dataclass(frozen=True)
class Path:
    """One resolved propagation path.

    Attributes:
        aoa: angle of arrival in radians, measured from the array axis.
        delay: continuous propagation delay in seconds.
        sampled_delay: delay quantized to OFDM samples, in [0, n_subcarriers).
        gain: complex path gain.
        path_length: geometric length in meters.
        cluster_id: 0 for line of sight, reflector index + 1 for first-order
            reflections, -1 for injected foreign paths.
        is_los: True only for the direct ray.
    """

    aoa: float
    delay: float
    sampled_delay: int
    gain: complex
    path_length: float
    cluster_id: int
    is_los: bool


@dataclass(frozen=True)
class Reflector:
    """Partially reflective wall segment with amplitude coefficient."""

    p1: tuple[float, float]
    p2: tuple[float, float]
    coefficient: float

    def __post_init__(self):
        if not 0.0 < self.coefficient <= 1.0:
            raise ValueError("reflection coefficient must be in (0, 1]")


@dataclass(frozen=True)
class Blocker:
    """Opaque wall segment; rays crossing it are discarded."""

    p1: tuple[float, float]
    p2: tuple[float, float]


@dataclass
class Environment:
    """Static 2D scene: base station, reflectors, blockers.

    The array axis is the direction of the antenna line, as an angle in
    radians from the +x axis; angles of arrival are measured against it.
    """

    bs_position: tuple[float, float]
    array_axis: float = math.pi / 2.0
    reflectors: tuple[Reflector, ...] = field(default_factory=tuple)
    blockers: tuple[Blocker, ...] = field(default_factory=tuple)
    speed_of_light: float = SPEED_OF_LIGHT


def array_response(aoa: float, array: ArrayConfig) -> np.ndarray:
    """Steering vector of the uniform linear array for one arrival angle.

    Element q carries phase -2*pi*q*d*cos(aoa)/wavelength, so element 0 is
    always 1. ``aoa`` should lie in (0, pi); the formula itself is defined
    everywhere and endfire angles are simply ambiguous, not invalid.

    Returns:
        complex128 vector of length n_antennas.
    """
    q = np.arange(array.n_antennas)
    phase = -2.0 * np.pi * q * array.element_spacing * np.cos(aoa) / array.wavelength
    return np.exp(1j * phase)


def quantize_delay(delay: float, ofdm: OfdmConfig) -> int:
    """Round a delay in seconds to the nearest OFDM sample (ties to even)."""
    if delay < 0.0:
        raise ValueError("delay must be nonnegative")
    return int(round(delay / ofdm.sample_duration))


# --- 2D geometry helpers -------------------------------------------------

def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _within_bbox(p, a, b) -> bool:
    return (
        min(a[0], b[0]) - 1e-12 <= p[0] <= max(a[0], b[0]) + 1e-12
        and min(a[1], b[1]) - 1e-12 <= p[1] <= max(a[1], b[1]) + 1e-12
    )


def segments_intersect(p1, p2, q1, q2) -> bool:
    """True if closed segments p1-p2 and q1-q2 share at least one point."""
    d1 = _cross(q1, q2, p1)
    d2 = _cross(q1, q2, p2)
    d3 = _cross(p1, p2, q1)
    d4 = _cross(p1, p2, q2)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    if d1 == 0 and _within_bbox(p1, q1, q2):
        return True
    if d2 == 0 and _within_bbox(p2, q1, q2):
        return True
    if d3 == 0 and _within_bbox(q1, p1, p2):
        return True
    if d4 == 0 and _within_bbox(q2, p1, p2):
        return True
    return False


def _reflect_point(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = b - a
    t = float(np.dot(p - a, d) / np.dot(d, d))
    foot = a + t * d
    return 2.0 * foot - p


def _segment_blocked(env: Environment, a, b) -> bool:
    return any(segments_intersect(a, b, blk.p1, blk.p2) for blk in env.blockers)


def _aoa_from_axis(env: Environment, direction: np.ndarray) -> float:
    axis = np.array([math.cos(env.array_axis), math.sin(env.array_axis)])
    u = direction / np.linalg.norm(direction)
    return float(math.acos(max(-1.0, min(1.0, float(np.dot(axis, u))))))


def trace_paths(
    env: Environment,
    user_position,
    array: ArrayConfig,
    ofdm: OfdmConfig,
) -> list[Path]:
    """Trace LOS and first-order reflected paths from the user to the array.

    A reflection is valid when the base station and the user sit strictly on
    the same side of the reflector's line, the specular point falls on the
    reflector segment, and neither leg crosses a blocker. Reflectors only
    redirect energy, they never occlude; only blockers occlude. Path gain is
    the reflection coefficient times the free-space amplitude
    wavelength / (4*pi*length) with phase -2*pi*length/wavelength.

    Paths whose quantized delay does not fit in the OFDM window are dropped
    (logged at debug level). The result is sorted by descending
    gain magnitude, ties broken by cluster id.

    Raises:
        ZeroDistance: if the user sits exactly on the base station.
    """
    user = np.asarray(user_position, dtype=float)
    bs = np.asarray(env.bs_position, dtype=float)
    if np.array_equal(user, bs):
        raise ZeroDistance("user position coincides with the base station")

    candidates: list[tuple[float, np.ndarray, float, int, bool]] = []

    if not _segment_blocked(env, bs, user):
        candidates.append((float(np.linalg.norm(user - bs)), user - bs, 1.0, 0, True))

    for i, ref in enumerate(env.reflectors):
        a = np.asarray(ref.p1, dtype=float)
        b = np.asarray(ref.p2, dtype=float)
        side_bs = _cross(a, b, bs)
        side_user = _cross(a, b, user)
        if side_bs == 0.0 or side_user == 0.0 or (side_bs > 0) != (side_user > 0):
            continue
        image = _reflect_point(user, a, b)
        # Specular point: where the bs->image segment crosses the wall line.
        d_wall = b - a
        d_ray = image - bs
        denom = _cross((0.0, 0.0), d_wall, d_ray)
        if denom == 0.0:
            continue
        t = _cross((0.0, 0.0), bs - a, d_ray) / denom
        if not 0.0 <= t <= 1.0:
            continue
        spec = a + t * d_wall
        if _segment_blocked(env, bs, spec) or _segment_blocked(env, spec, user):
            continue
        length = float(np.linalg.norm(image - bs))
        candidates.append((length, d_ray, ref.coefficient, i + 1, False))

    paths: list[Path] = []
    for length, direction, coeff, cluster, los in candidates:
        delay = length / env.speed_of_light
        n = quantize_delay(delay, ofdm)
        if n >= ofdm.n_subcarriers:
            logger.debug("dropped path with sampled delay %d (cluster %d)", n, cluster)
            continue
        amplitude = coeff * array.wavelength / (4.0 * np.pi * length)
        gain = amplitude * np.exp(-2j * np.pi * length / array.wavelength)
        paths.append(
            Path(
                aoa=_aoa_from_axis(env, direction),
                delay=delay,
                sampled_delay=n,
                gain=complex(gain),
                path_length=length,
                cluster_id=cluster,
                is_los=los,
            )
        )
    paths.sort(key=lambda p: (-abs(p.gain), p.cluster_id))
    return paths


def synthesize_csi(
    paths: list[Path], array: ArrayConfig, ofdm: OfdmConfig
) -> np.ndarray:
    """Stack per-path contributions into the CSI matrix.

    Subcarrier l of a path with sampled delay n carries the phase ramp
    exp(-2j*pi*l*n/n_subcarriers) on top of the steering vector, so the CSI
    is a sum of rank-one terms. An empty path list yields the zero matrix
    (lost link).

    Returns:
        complex128 matrix of shape (n_antennas, n_subcarriers).

    Raises:
        DelayOverflow: if a path's sampled delay is outside [0, n_subcarriers).
    """
    h = np.zeros((array.n_antennas, ofdm.n_subcarriers), dtype=np.complex128)
    l = np.arange(ofdm.n_subcarriers)
    for p in paths:
        if not 0 <= p.sampled_delay < ofdm.n_subcarriers:
            raise DelayOverflow(
                f"sampled delay {p.sampled_delay} outside [0, {ofdm.n_subcarriers})"
            )
        ramp = np.exp(-2j * np.pi * l * p.sampled_delay / ofdm.n_subcarriers)
        h += p.gain * np.outer(array_response(p.aoa, array), ramp)
    return h


# --- environment description files ---------------------------------------
#
# Plain text, one statement per line, '#' starts a comment. Scalars:
#   bs_position = X Y
#   array_axis = RADIANS          (optional, default pi/2)
#   speed_of_light = M_PER_S      (optional)
# Repeatable segment lines, coordinates in meters:
#   reflector = X1 Y1 X2 Y2 COEFFICIENT
#   blocker = X1 Y1 X2 Y2

def parse_environment(text: str) -> Environment:
    """Parse an environment description; see the module-level schema note."""
    bs = None
    axis = math.pi / 2.0
    v_c = SPEED_OF_LIGHT
    reflectors: list[Reflector] = []
    blockers: list[Blocker] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"line {lineno}: expected 'key = values'")
        key, _, rest = line.partition("=")
        key = key.strip()
        try:
            values = [float(tok) for tok in rest.split()]
        except ValueError as exc:
            raise FormatError(f"line {lineno}: non-numeric value") from exc
        if key == "bs_position":
            if len(values) != 2:
                raise FormatError(f"line {lineno}: bs_position needs 2 values")
            bs = (values[0], values[1])
        elif key == "array_axis":
            if len(values) != 1:
                raise FormatError(f"line {lineno}: array_axis needs 1 value")
            axis = values[0]
        elif key == "speed_of_light":
            if len(values) != 1:
                raise FormatError(f"line {lineno}: speed_of_light needs 1 value")
            v_c = values[0]
        elif key == "reflector":
            if len(values) != 5:
                raise FormatError(f"line {lineno}: reflector needs 5 values")
            reflectors.append(
                Reflector((values[0], values[1]), (values[2], values[3]), values[4])
            )
        elif key == "blocker":
            if len(values) != 4:
                raise FormatError(f"line {lineno}: blocker needs 4 values")
            blockers.append(Blocker((values[0], values[1]), (values[2], values[3])))
        else:
            raise FormatError(f"line {lineno}: unknown key {key!r}")
    if bs is None:
        raise FormatError("missing bs_position")
    return Environment(
        bs_position=bs,
        array_axis=axis,
        reflectors=tuple(reflectors),
        blockers=tuple(blockers),
        speed_of_light=v_c,
    )


def format_environment(env: Environment) -> str:
    lines = [
        "# environment description, units: meters / radians",
        f"bs_position = {env.bs_position[0]!r} {env.bs_position[1]!r}",
        f"array_axis = {env.array_axis!r}",
        f"speed_of_light = {env.speed_of_light!r}",
    ]
    for r in env.reflectors:
        lines.append(
            f"reflector = {r.p1[0]!r} {r.p1[1]!r} {r.p2[0]!r} {r.p2[1]!r} "
            f"{r.coefficient!r}"
        )
    for b in env.blockers:
        lines.append(f"blocker = {b.p1[0]!r} {b.p1[1]!r} {b.p2[0]!r} {b.p2[1]!r}")
    return "\n".join(lines) + "\n"


def load_environment(path) -> Environment:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_environment(fh.read())


def save_environment(env: Environment, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_environment(env))
