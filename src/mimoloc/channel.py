"""Geometric multipath channel simulation on a 2D floor plan.

The propagation model is deliberately small: a line-of-sight ray plus
first-order specular reflections off line-segment reflectors, with opaque
line-segment blockers. Each surviving ray becomes a propagation path with
an angle of arrival at a uniform linear array, a free-space amplitude that
decays as 1 / path length, and a delay quantized to the OFDM sample grid.
CSI synthesis stacks the per-path rank-one contributions.

``trace_paths`` traces a stack of user positions in one vectorized pass,
with a loop over reflectors and blockers only, into a ``Paths`` record of
(n, k) arrays, a row per position and a column per ray. ``synthesize_csi``
turns it into an (n, n_antennas, n_subcarriers) CSI stack, looping over
columns only. Each row is the same to the bit as its position traced
alone; the comments below mark the choices that keep it so.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DelayOverflow, FormatError, ZeroDistance, check_int, check_positive

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
        check_int("n_antennas", self.n_antennas)
        check_positive("wavelength", self.wavelength)
        if self.element_spacing is None:
            object.__setattr__(self, "element_spacing", self.wavelength / 2.0)
        check_positive("element_spacing", self.element_spacing)


@dataclass(frozen=True)
class OfdmConfig:
    """OFDM sampling grid: subcarrier count and bandwidth in Hz."""

    n_subcarriers: int
    bandwidth: float

    def __post_init__(self):
        check_int("n_subcarriers", self.n_subcarriers)
        check_positive("bandwidth", self.bandwidth)

    @property
    def sample_duration(self) -> float:
        return 1.0 / self.bandwidth


@dataclass(frozen=True, eq=False)
class Paths:
    """The propagation paths of n positions: (n, k) arrays, len() is n.

    Entry (i, j) is a path of position i where ``valid[i, j]`` is set; the
    values of the other entries mean nothing.

    Attributes:
        aoa: angle of arrival in radians, measured from the array axis.
        sampled_delay: delay quantized to OFDM samples, in [0, n_subcarriers).
        gain: complex path gain.
        length: geometric length in meters (delay times speed of light).
        cluster: 0 for line of sight, reflector index + 1 for first-order
            reflections, -1 for injected foreign paths.
        valid: which entries are paths.
    """

    aoa: np.ndarray
    sampled_delay: np.ndarray
    gain: np.ndarray
    length: np.ndarray
    cluster: np.ndarray
    valid: np.ndarray

    def __len__(self) -> int:
        return len(self.valid)


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


def array_response(aoa, array: ArrayConfig) -> np.ndarray:
    """Steering vector of the uniform linear array for one arrival angle.

    Element q carries phase -2*pi*q*d*cos(aoa)/wavelength, so element 0 is
    always 1. ``aoa`` should lie in (0, pi); the formula itself is defined
    everywhere and endfire angles are simply ambiguous, not invalid. An
    array of angles gives one steering vector per angle.

    Returns:
        complex128 array of shape aoa.shape + (n_antennas,).
    """
    q = np.arange(array.n_antennas)
    cos = np.cos(np.asarray(aoa, dtype=float))[..., None]
    # factors kept in this order, left to right, so every element is the
    # same double as with a single angle
    phase = -2.0 * np.pi * q * array.element_spacing * cos / array.wavelength
    return np.exp(1j * phase)


def quantize_delay(delay, ofdm: OfdmConfig):
    """Round delays in seconds to the nearest OFDM sample (ties to even).

    A float gives an int; an array gives an int64 array of its shape.

    Raises:
        ValueError: a delay is negative, or its count is not an int64.
    """
    d = np.asarray(delay, dtype=float)
    if np.any(d < 0.0):
        raise ValueError("delay must be nonnegative")
    with np.errstate(over="ignore"):  # a count past the largest float is inf
        n = np.rint(d / ofdm.sample_duration)
    if not np.all(n < 2.0 ** 63):
        raise ValueError("delay must be finite and under 2**63 samples")
    n = n.astype(np.int64)
    return int(n) if n.ndim == 0 else n


# --- 2D geometry ---------------------------------------------------------
#
# Points are arrays whose last axis holds (x, y); leading axes broadcast.

def _cross(o, a, b):
    """z component of (a - o) x (b - o)."""
    return ((a[..., 0] - o[..., 0]) * (b[..., 1] - o[..., 1])
            - (a[..., 1] - o[..., 1]) * (b[..., 0] - o[..., 0]))


def segments_intersect(p1, p2, q1, q2):
    """True where closed segments p1-p2 and q1-q2 share at least one point.

    Each argument is one point (x, y) or an array of points shaped
    (..., 2); they broadcast against each other. Returns a bool array of
    the broadcast shape, a numpy bool for four single points.
    """
    p1, p2, q1, q2 = (np.asarray(v, dtype=float) for v in (p1, p2, q1, q2))
    d1 = _cross(q1, q2, p1)
    d2 = _cross(q1, q2, p2)
    d3 = _cross(p1, p2, q1)
    d4 = _cross(p1, p2, q2)
    proper = (((d1 > 0) & (d2 < 0)) | ((d1 < 0) & (d2 > 0))) & (
        ((d3 > 0) & (d4 < 0)) | ((d3 < 0) & (d4 > 0)))

    def touches(d, p, a, b):
        # p lies on the line through a and b, inside their bounding box
        inside = ((np.minimum(a, b) - 1e-12 <= p)
                  & (p <= np.maximum(a, b) + 1e-12))
        return (d == 0) & inside[..., 0] & inside[..., 1]

    return (proper | touches(d1, p1, q1, q2) | touches(d2, p2, q1, q2)
            | touches(d3, q1, p1, p2) | touches(d4, q2, p1, p2))


def _blocked(env: Environment, a, b) -> np.ndarray:
    """True where segment a-b crosses any blocker."""
    hit = np.zeros(np.broadcast_shapes(np.shape(a), np.shape(b))[:-1], bool)
    for blk in env.blockers:
        hit |= segments_intersect(a, b, blk.p1, blk.p2)
    return hit


def _candidates(env: Environment, users: np.ndarray):
    """Every LOS and first-order reflected ray of an (n, 2) user stack.

    Column 0 is the direct ray, column i + 1 the reflection off reflector
    i. Returns (valid, direction): valid (n, k) marks rays that exist and
    cross no blocker; direction (n, k, 2) points from the base station to
    the user or to the user's mirror image, so its norm is the path length.
    """
    n, k = len(users), 1 + len(env.reflectors)
    bs = np.asarray(env.bs_position, dtype=float)
    origin = np.zeros(2)
    valid = np.zeros((n, k), dtype=bool)
    direction = np.empty((n, k, 2))
    valid[:, 0] = ~_blocked(env, bs, users)
    direction[:, 0] = users - bs
    for i, ref in enumerate(env.reflectors, start=1):
        a = np.asarray(ref.p1, dtype=float)
        b = np.asarray(ref.p2, dtype=float)
        side_bs = _cross(a, b, bs)
        side_user = _cross(a, b, users)
        d_wall = b - a
        # NaN and inf land only in rows the mask below drops (a point wall,
        # a ray parallel to the wall)
        with np.errstate(divide="ignore", invalid="ignore"):
            # mirror image across the wall line; np.vecdot takes the same
            # BLAS ddot as np.dot on one 2-vector, so it is the same double
            t = np.vecdot(users - a, d_wall) / np.vecdot(d_wall, d_wall)
            image = 2.0 * (a + t[:, None] * d_wall) - users
            # specular point: where the bs->image segment crosses the wall
            d_ray = image - bs
            denom = _cross(origin, d_wall, d_ray)
            s = _cross(origin, bs - a, d_ray) / denom
        ok = ((side_bs != 0.0) & (side_user != 0.0)
              & ((side_bs > 0) == (side_user > 0))
              & (denom != 0.0) & (0.0 <= s) & (s <= 1.0))
        spec = a + np.where(ok, s, 0.0)[:, None] * d_wall
        valid[:, i] = (ok & ~_blocked(env, bs, spec)
                       & ~_blocked(env, spec, users))
        direction[:, i] = d_ray
    return valid, direction


def trace_paths(env: Environment, user_position, array: ArrayConfig,
                ofdm: OfdmConfig) -> Paths:
    """Trace LOS and first-order reflected paths from users to the array.

    A reflection is valid when the base station and the user sit strictly on
    the same side of the reflector's line, the specular point falls on the
    reflector segment, and neither leg crosses a blocker. Reflectors only
    redirect energy, they never occlude; only blockers occlude. Path gain is
    the reflection coefficient times the free-space amplitude
    wavelength / (4*pi*length) with phase -2*pi*length/wavelength.

    Paths whose quantized delay does not fit in the OFDM window are dropped
    (logged at debug level, in position order). Each row holds its paths
    first, sorted by descending gain magnitude, ties broken by cluster id.

    ``user_position`` is an (n, 2) stack of points, giving n rows, or one
    point (x, y), traced as a stack of one.

    Raises:
        ZeroDistance: if a user sits exactly on the base station.
    """
    users = np.asarray(user_position, dtype=float).reshape(-1, 2)
    if np.any(np.all(users == np.asarray(env.bs_position, dtype=float),
                     axis=1)):
        raise ZeroDistance("user position coincides with the base station")
    valid, direction = _candidates(env, users)
    n, k = valid.shape
    direction[~valid] = 1.0  # keeps the unused entries finite
    # sqrt of the BLAS ddot, as np.linalg.norm takes it on one 2-vector;
    # hypot, einsum or a sum of squares may differ in the last bit
    length = np.sqrt(np.vecdot(direction, direction))
    # a path past the window is dropped before its sample count is cast to
    # int64, which that count need not fit; a delay or count past the
    # largest float (a speed of light near 0) is inf, and dropped too
    with np.errstate(over="ignore"):
        delay = length / env.speed_of_light
        samples = np.rint(delay / ofdm.sample_duration)
    keep = valid & (samples < ofdm.n_subcarriers)
    for row, col in zip(*np.nonzero(valid & ~keep)):
        logger.debug("dropped path with sampled delay %.0f (cluster %d)",
                     samples[row, col], col)
    sampled = quantize_delay(np.where(keep, delay, 0.0), ofdm)
    coeff = np.array([1.0] + [r.coefficient for r in env.reflectors])
    amplitude = coeff * array.wavelength / (4.0 * np.pi * length)
    # a real phase times 1j: Python's complex / float (-2j*pi*L/wavelength)
    # is not numpy's complex division, but this is the same double
    gain = amplitude * np.exp(1j * (-2.0 * np.pi * length / array.wavelength))
    axis = np.array([math.cos(env.array_axis), math.sin(env.array_axis)])
    cos_aoa = np.clip(np.vecdot(direction / length[..., None], axis), -1.0, 1.0)
    # |gain| by np.hypot, the libm hypot that Python's abs(complex) calls;
    # np.abs on complex128 takes a SIMD path that can differ in the last bit
    key = np.where(keep, -np.hypot(gain.real, gain.imag), np.inf)
    order = np.argsort(key, axis=1, kind="stable")  # ties: cluster order
    cluster = np.broadcast_to(np.arange(k), (n, k))
    cos_aoa, sampled, gain, length, cluster, keep = (
        np.take_along_axis(x, order, axis=1)
        for x in (cos_aoa, sampled, gain, length, cluster, keep))
    aoa = np.zeros((n, k))
    # math.acos per path: np.arccos differs from it in the last bit
    aoa[keep] = [math.acos(c) for c in cos_aoa[keep].tolist()]
    return Paths(aoa, sampled, gain, length, cluster, keep)


def synthesize_csi(paths: Paths, array: ArrayConfig,
                   ofdm: OfdmConfig) -> np.ndarray:
    """Stack per-path contributions into one CSI matrix per position.

    Subcarrier l of a path with sampled delay n carries the phase ramp
    exp(-2j*pi*l*n/n_subcarriers) on top of the steering vector, so a CSI
    matrix is a sum of rank-one terms, one per path of its row, added in
    column order. A row without a path yields the zero matrix (lost link).

    Returns:
        complex128 array of shape (len(paths), n_antennas, n_subcarriers).

    Raises:
        DelayOverflow: if a path's sampled delay is outside [0, n_subcarriers).
    """
    valid = paths.valid
    sampled = paths.sampled_delay[valid]
    bad = np.flatnonzero((sampled < 0) | (sampled >= ofdm.n_subcarriers))
    if len(bad):
        raise DelayOverflow(
            f"sampled delay {sampled[bad[0]]} outside [0, {ofdm.n_subcarriers})"
        )
    l = np.arange(ofdm.n_subcarriers)
    # ramp of every delay bin, each element the same double as the ramp of
    # one path: the same factors in the same order
    ramps = np.exp(-2j * np.pi * l * l[:, None] / ofdm.n_subcarriers)
    h = np.zeros((len(paths), array.n_antennas, ofdm.n_subcarriers),
                 dtype=np.complex128)
    # column j of every row at once: each matrix sums its own terms one at
    # a time in column order, as a loop over one row would
    for j in range(valid.shape[1]):
        rows = np.flatnonzero(valid[:, j])
        steering = array_response(paths.aoa[rows, j], array)
        term = paths.gain[rows, j][:, None, None] * (
            steering[:, :, None] * ramps[paths.sampled_delay[rows, j], None, :])
        if len(rows) == len(h):
            h += term  # every row has a path here; half the time of h[rows]
        else:
            h[rows] += term
    return h


# --- environment description files ---------------------------------------
#
# Plain text, one statement per line, '#' starts a comment. Every value is
# a finite number. Scalars:
#   bs_position = X Y
#   array_axis = RADIANS          (optional, default pi/2)
#   speed_of_light = M_PER_S      (optional, above 0)
# Repeatable segment lines, coordinates in meters:
#   reflector = X1 Y1 X2 Y2 COEFFICIENT   (coefficient in (0, 1])
#   blocker = X1 Y1 X2 Y2

# how many values each key takes; the scalar keys name Environment fields
_ARITY = {"bs_position": 2, "array_axis": 1, "speed_of_light": 1,
          "reflector": 5, "blocker": 4}


def parse_environment(text: str) -> Environment:
    """Parse an environment description; see the schema note above.

    Raises:
        FormatError: a line that breaks the schema, or a value out of range.
    """
    scalars = {}
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
        if not all(math.isfinite(v) for v in values):
            raise FormatError(f"line {lineno}: non-finite value")
        arity = _ARITY.get(key)
        if arity is None:
            raise FormatError(f"line {lineno}: unknown key {key!r}")
        if len(values) != arity:
            raise FormatError(f"line {lineno}: {key} needs {arity} "
                              f"value{'s' * (arity > 1)}")
        if key == "reflector":
            try:
                reflectors.append(Reflector(tuple(values[:2]),
                                            tuple(values[2:4]), values[4]))
            except ValueError as exc:
                raise FormatError(f"line {lineno}: {exc}") from exc
        elif key == "blocker":
            blockers.append(Blocker(tuple(values[:2]), tuple(values[2:])))
        elif key == "speed_of_light" and values[0] <= 0.0:
            raise FormatError(f"line {lineno}: speed_of_light must be above 0")
        else:
            scalars[key] = tuple(values) if arity > 1 else values[0]
    if "bs_position" not in scalars:
        raise FormatError("missing bs_position")
    return Environment(**scalars, reflectors=tuple(reflectors),
                       blockers=tuple(blockers))


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
