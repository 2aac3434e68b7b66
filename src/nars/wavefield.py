"""Nonlinear acoustic propagation: plane-wave and axisymmetric beam solvers.

Two marching solvers share the same medium description. The plane-wave
solver evolves one steady-state cycle of a periodic wave in retarded time,
splitting each range step into an exact lossless distortion substep
(simple-wave characteristics, resampled onto the uniform time grid) and an
exact per-harmonic thermoviscous decay. The axisymmetric solver marches
complex harmonic amplitudes A_n(r, z) with a split of Crank-Nicolson radial
diffraction, exact absorption, and explicit quadratic harmonic coupling.

Amplitude convention for the harmonic field: p(r, z, tau) =
Re{ sum_n A_n(r, z) exp(i n w tau) }, so |A_n| is directly the measured
amplitude of harmonic n in Pa.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded
from scipy.special import jv

from .errors import (
    ConfigurationError,
    DataError,
    DivergenceError,
    DomainError,
    FramingError,
    ValidityError,
)

SOURCE_KINDS = ("sine", "gaussian_pulse")


@dataclass(frozen=True)
class Medium:
    """Homogeneous fluid: density, small-signal speed, nonlinearity, diffusivity."""

    rho0: float
    c: float
    beta: float
    delta: float = 0.0

    def __post_init__(self):
        if self.rho0 <= 0 or self.c <= 0:
            raise DomainError("medium requires rho0 > 0 and c > 0")
        if self.beta < 0 or self.delta < 0:
            raise DomainError("medium requires beta >= 0 and delta >= 0")


@dataclass(frozen=True)
class SourceWaveform:
    p0: float
    f0: float
    kind: str = "sine"
    phase: float = 0.0

    def __post_init__(self):
        if self.p0 <= 0 or self.f0 <= 0:
            raise DomainError("source requires p0 > 0 and f0 > 0")
        if self.kind not in SOURCE_KINDS:
            raise DomainError(f"unknown source kind {self.kind!r}")

    def period(self) -> float:
        return 1.0 / self.f0

    def samples(self, n_time: int) -> np.ndarray:
        """One cycle sampled on the uniform retarded-time grid."""
        t = np.arange(n_time) / (n_time * self.f0)
        if self.kind == "sine":
            return self.p0 * np.sin(2 * np.pi * self.f0 * t + self.phase)
        # periodized pulse centered mid-cycle, width T/12; phase shifts the center
        T = self.period()
        center = T / 2 + self.phase / (2 * np.pi * self.f0)
        return self.p0 * np.exp(-0.5 * ((t - center) / (T / 12)) ** 2)

    def max_slope(self, n_time: int = 4096) -> float:
        """Largest |dp/dtau| of one source cycle (exact for sine)."""
        if self.kind == "sine":
            return 2 * np.pi * self.f0 * self.p0
        p = self.samples(n_time)
        dt = self.period() / n_time
        return float(np.max(np.abs(np.gradient(p, dt))))


@dataclass(frozen=True)
class PlaneWaveGrid:
    n_time: int
    n_steps: int
    dz: float
    z_max: float

    def __post_init__(self):
        if self.n_time < 64 or self.n_time & (self.n_time - 1):
            raise ConfigurationError("n_time must be a power of two >= 64")
        if self.n_steps < 1 or self.dz <= 0:
            raise ConfigurationError("n_steps >= 1 and dz > 0 required")
        if abs(self.n_steps * self.dz - self.z_max) > 1e-9 * max(abs(self.z_max), 1e-300):
            raise ConfigurationError("n_steps * dz must equal z_max to one part in 1e9")


@dataclass(frozen=True)
class AxisymGrid:
    n_r: int
    dr: float
    n_z: int
    dz: float
    n_harm: int

    def __post_init__(self):
        if self.n_r < 32 or self.dr <= 0:
            raise ConfigurationError("n_r >= 32 and dr > 0 required")
        if self.n_z < 1 or self.dz <= 0:
            raise ConfigurationError("n_z >= 1 and dz > 0 required")
        if self.n_harm < 2:
            raise ConfigurationError("n_harm >= 2 required")

    @property
    def r(self) -> np.ndarray:
        return np.arange(self.n_r) * self.dr

    @property
    def z_max(self) -> float:
        return self.n_z * self.dz


@dataclass
class HarmonicField:
    """Complex amplitudes, shape (n_harm, n_r); |amps[n-1]| is harmonic n in Pa."""

    amps: np.ndarray
    z: float

    @property
    def n_harm(self) -> int:
        return self.amps.shape[0]

    @property
    def n_r(self) -> int:
        return self.amps.shape[1]


@dataclass
class TimeWaveform:
    samples: np.ndarray = field(repr=False)
    fs: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.fs <= 0:
            raise DomainError("fs must be positive")


# === closed forms ===


def shock_formation_distance(medium: Medium, src: SourceWaveform) -> float:
    """Plane-wave shock distance rho0 c^3 / (beta w p0), w = 2 pi f0."""
    if medium.beta == 0:
        raise DomainError("no shock forms in a linear medium (beta = 0)")
    omega = 2 * np.pi * src.f0
    return medium.rho0 * medium.c**3 / (medium.beta * omega * src.p0)


def fubini_harmonics(n: int, sigma: float) -> float:
    """Pre-shock harmonic ratio B_n = 2 J_n(n sigma) / (n sigma).

    sigma is range over shock distance; the series converges for sigma <= 1.
    """
    if n < 1 or int(n) != n:
        raise DomainError("harmonic index must be a positive integer")
    if sigma < 0:
        raise DomainError("sigma must be nonnegative")
    if sigma > 1:
        raise ValidityError("pre-shock series is valid only up to sigma = 1")
    if sigma == 0:
        return 1.0 if n == 1 else 0.0
    x = n * sigma
    return float(2.0 * jv(n, x) / x)


def analytic_gaussian_axis(src: SourceWaveform, a: float, medium: Medium, z: float) -> float:
    """Linear on-axis amplitude of a Gaussian source: p0 / sqrt(1 + (z/z_R)^2)."""
    if a <= 0:
        raise DomainError("source radius must be positive")
    if z < 0:
        raise DomainError("z must be nonnegative")
    k = 2 * np.pi * src.f0 / medium.c
    z_r = k * a**2 / 2
    return float(src.p0 / np.sqrt(1.0 + (z / z_r) ** 2))


def rayleigh_distance(src: SourceWaveform, a: float, medium: Medium) -> float:
    return 2 * np.pi * src.f0 / medium.c * a**2 / 2


# === spectral analysis ===


def harmonic_spectrum(w: TimeWaveform, f0: float, n_max: int) -> np.ndarray:
    """Amplitudes of harmonics 1..n_max of f0, unit-sine normalized.

    The waveform must hold an integer number of f0 cycles; harmonics must
    stay below Nyquist.
    """
    if f0 <= 0 or n_max < 1:
        raise DomainError("f0 > 0 and n_max >= 1 required")
    n = w.samples.shape[-1]
    cycles = n / w.fs * f0
    cycles_int = round(cycles)
    if cycles_int < 1 or abs(cycles - cycles_int) > 1e-6 * max(cycles, 1.0):
        raise FramingError("waveform must span an integer number of f0 cycles")
    if n_max * cycles_int >= n // 2 + 1:
        raise FramingError("requested harmonics reach past Nyquist")
    spec = np.fft.rfft(w.samples)
    bins = np.arange(1, n_max + 1) * cycles_int
    return 2.0 * np.abs(spec[bins]) / n


# === plane-wave solver ===


def _distort_lossless(p: np.ndarray, tau: np.ndarray, period: float, eps: float) -> np.ndarray:
    """Advance one lossless simple-wave step: value p travels to tau - eps*p."""
    y = tau - eps * p
    dy = np.diff(y)
    wrap = (y[0] + period) - y[-1]
    if np.any(dy <= 0) or wrap <= 0:
        raise DivergenceError("nonlinear distortion substep lost monotonicity (shock reached)")
    return np.interp(tau, y, p, period=period)


def simulate_westervelt_plane(
    medium: Medium,
    src: SourceWaveform,
    grid: PlaneWaveGrid,
    n_harm_out: int = 4,
    callback=None,
) -> TimeWaveform:
    """March one periodic cycle to z_max; returns the distorted steady-state cycle.

    ``n_harm_out`` declares how many harmonics downstream analysis will
    read; the time grid must oversample them 16x to keep steepening
    alias-free. ``callback(z, samples)`` is invoked at z=0 and after every
    step.
    """
    if grid.n_time < 16 * n_harm_out:
        raise ConfigurationError(
            f"n_time={grid.n_time} cannot resolve {n_harm_out} harmonics; need >= {16 * n_harm_out}"
        )
    sigma_end = grid.z_max * medium.beta * src.max_slope() / (medium.rho0 * medium.c**3)
    if sigma_end >= 1.0:
        raise ValidityError(
            f"z_max reaches sigma={sigma_end:.3f} >= 1; pre-shock solver refuses"
        )

    period = src.period()
    tau = np.arange(grid.n_time) * (period / grid.n_time)
    p = src.samples(grid.n_time)
    eps = medium.beta * grid.dz / (medium.rho0 * medium.c**3)

    decay = None
    if medium.delta > 0:
        n_idx = np.arange(grid.n_time // 2 + 1)
        omega_n = 2 * np.pi * src.f0 * n_idx
        decay = np.exp(-medium.delta * omega_n**2 * grid.dz / (2 * medium.c**3))

    peak0 = np.max(np.abs(p))
    if callback is not None:
        callback(0.0, p.copy())
    for step in range(grid.n_steps):
        if medium.beta > 0:
            p = _distort_lossless(p, tau, period, eps)
        if decay is not None:
            p = np.fft.irfft(np.fft.rfft(p) * decay, n=grid.n_time)
        if np.max(np.abs(p)) > 10 * peak0:
            raise DivergenceError("plane-wave march diverged after the absorption substep")
        if callback is not None:
            callback((step + 1) * grid.dz, p.copy())
    return TimeWaveform(p, fs=grid.n_time * src.f0)


def westervelt_harmonic_curve(
    medium: Medium, src: SourceWaveform, grid: PlaneWaveGrid, n_max: int = 4
) -> tuple[np.ndarray, np.ndarray, TimeWaveform]:
    """Harmonic ratios |p_n|/p0 recorded along the march.

    Returns (z, ratios, final) with ratios shaped (n_steps + 1, n_max) and
    final the cycle at z_max, as ``simulate_westervelt_plane`` returns it.
    """
    zs: list[float] = []
    rows: list[np.ndarray] = []

    def record(z, samples):
        zs.append(z)
        w = TimeWaveform(samples, fs=grid.n_time * src.f0)
        rows.append(harmonic_spectrum(w, src.f0, n_max) / src.p0)

    final = simulate_westervelt_plane(medium, src, grid, n_harm_out=n_max, callback=record)
    return np.asarray(zs), np.asarray(rows), final


# === axisymmetric harmonic solver ===


def _radial_laplacian_bands(n_r: int, dr: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Finite-volume axisymmetric Laplacian, tridiagonal (lower, diag, upper).

    Conservative form: self-adjoint under the cell-volume weights, which is
    what makes the Crank-Nicolson diffraction step exactly energy-preserving
    ahead of the edge absorber.
    """
    i = np.arange(n_r, dtype=np.float64)
    r_minus = (i - 0.5) * dr
    r_plus = (i + 0.5) * dr
    vol = radial_weights(n_r, dr)
    lower = np.zeros(n_r)
    upper = np.zeros(n_r)
    diag = np.zeros(n_r)
    # axis cell: single flux through r = dr/2
    upper[0] = r_plus[0] / (dr * vol[0])
    diag[0] = -upper[0]
    lower[1:] = r_minus[1:] / (dr * vol[1:])
    upper[1:] = r_plus[1:] / (dr * vol[1:])
    diag[1:] = -(r_minus[1:] + r_plus[1:]) / (dr * vol[1:])
    # outermost cell keeps its Dirichlet ghost (pressure release) implicitly:
    # the upper coefficient is simply dropped from the matrix.
    return lower, diag, upper


def radial_weights(n_r: int, dr: float) -> np.ndarray:
    """Cell areas /(2 pi): integral of r dr over each radial cell."""
    i = np.arange(n_r, dtype=np.float64)
    vol = i * dr * dr
    vol[0] = dr * dr / 8.0
    return vol


def field_energy(amps: np.ndarray, dr: float) -> float:
    """Cross-section integral sum_n |A_n|^2 2 pi r dr under the solver's weights."""
    vol = radial_weights(amps.shape[1], dr)
    return float(2 * np.pi * np.sum(np.abs(amps) ** 2 * vol[None, :]))


def _quadratic_coupling(amps: np.ndarray) -> np.ndarray:
    """Harmonic components of p^2 under the half-amplitude convention.

    S_n = sum_{m<n} A_m A_{n-m} + 2 sum_{m>n} A_m conj(A_{m-n}); products
    that would land above n_harm are truncated, never wrapped.
    """
    n_harm = amps.shape[0]
    s = np.zeros_like(amps)
    for n in range(1, n_harm + 1):
        acc = np.zeros(amps.shape[1], dtype=np.complex128)
        for m in range(1, n):
            acc += amps[m - 1] * amps[n - m - 1]
        for m in range(n + 1, n_harm + 1):
            acc += 2.0 * amps[m - 1] * np.conj(amps[m - n - 1])
        s[n - 1] = acc
    return s


class _KzkStepper:
    def __init__(self, medium: Medium, src: SourceWaveform, grid: AxisymGrid):
        self.medium = medium
        self.src = src
        self.grid = grid
        self.omega = 2 * np.pi * src.f0
        self._cn_cache: dict[float, list[np.ndarray]] = {}
        self.lower, self.diag, self.upper = _radial_laplacian_bands(grid.n_r, grid.dr)
        # quadratic absorbing ramp over the outer 10% of the radius
        i0 = int(np.floor(0.9 * grid.n_r))
        ramp = np.zeros(grid.n_r)
        width_m = (grid.n_r - 1 - i0) * grid.dr
        if width_m > 0:
            x = (np.arange(grid.n_r) - i0) / (grid.n_r - 1 - i0)
            ramp = np.where(x > 0, x**2, 0.0) * (30.0 / width_m)
        self.edge_rate = ramp

    def _cn_matrices(self, dz: float) -> list[np.ndarray]:
        """Per-harmonic banded (I + i dz/(4 k_n) L) and RHS bands."""
        if dz in self._cn_cache:
            return self._cn_cache[dz]
        mats = []
        for n in range(1, self.grid.n_harm + 1):
            k_n = n * self.omega / self.medium.c
            coef = 1j * dz / (4 * k_n)
            ab = np.zeros((3, self.grid.n_r), dtype=np.complex128)
            ab[0, 1:] = coef * self.upper[:-1]
            ab[1, :] = 1.0 + coef * self.diag
            ab[2, :-1] = coef * self.lower[1:]
            mats.append(ab)
        self._cn_cache[dz] = mats
        return mats

    def diffract(self, amps: np.ndarray, dz: float) -> np.ndarray:
        mats = self._cn_matrices(dz)
        out = np.empty_like(amps)
        for idx in range(self.grid.n_harm):
            k_n = (idx + 1) * self.omega / self.medium.c
            coef = -1j * dz / (4 * k_n)
            a = amps[idx]
            rhs = (1.0 + coef * self.diag) * a
            rhs[:-1] += coef * self.upper[:-1] * a[1:]
            rhs[1:] += coef * self.lower[1:] * a[:-1]
            out[idx] = solve_banded((1, 1), mats[idx], rhs)
        return out

    def absorb(self, amps: np.ndarray, dz: float) -> np.ndarray:
        if self.medium.delta == 0:
            return amps
        n = np.arange(1, self.grid.n_harm + 1)
        decay = np.exp(-self.medium.delta * (n * self.omega) ** 2 * dz / (2 * self.medium.c**3))
        return amps * decay[:, None]

    def nonlinear(self, amps: np.ndarray, dz: float) -> np.ndarray:
        if self.medium.beta == 0:
            return amps
        n = np.arange(1, self.grid.n_harm + 1)
        gain = 1j * n * self.omega * self.medium.beta / (4 * self.medium.rho0 * self.medium.c**3)
        return amps + dz * gain[:, None] * _quadratic_coupling(amps)

    def edge_damp(self, amps: np.ndarray, dz: float) -> np.ndarray:
        return amps * np.exp(-self.edge_rate * dz)[None, :]


def simulate_kzk_axisym(
    medium: Medium,
    src: SourceWaveform,
    source_profile,
    grid: AxisymGrid,
    *,
    strang: bool = False,
    callback=None,
) -> HarmonicField:
    """Split-step march of the axisymmetric parabolic harmonic equations.

    ``source_profile(r)`` gives the dimensionless radial amplitude of the
    fundamental at z=0 (scaled by src.p0). First-order splitting by default:
    diffraction, absorption, nonlinearity per dz; ``strang=True`` wraps the
    step in half-diffraction substeps. ``callback(z, amps)`` sees the state
    at z=0 and after each step.
    """
    if src.kind != "sine":
        raise DomainError("axisymmetric harmonic solver requires a sine source")
    radius = getattr(source_profile, "radius", None)
    if radius is not None and grid.n_r * grid.dr < 4.0 * radius:
        raise ConfigurationError("radial domain must span at least 4x the source radius")
    amps = np.zeros((grid.n_harm, grid.n_r), dtype=np.complex128)
    prof = np.asarray(source_profile(grid.r), dtype=np.float64)
    if prof.shape != (grid.n_r,):
        raise FramingError("source_profile must return one value per radial node")
    if not np.all(np.isfinite(prof)):
        raise DataError("source_profile must be finite on the radial grid")
    amps[0] = src.p0 * prof * np.exp(1j * src.phase)

    stepper = _KzkStepper(medium, src, grid)
    limit = 10 * src.p0 * max(1.0, float(np.max(np.abs(prof))))

    def check(stage: str):
        m = np.abs(amps).max()
        if not np.isfinite(m) or m > limit:
            raise DivergenceError(f"axisymmetric march diverged in the {stage} substep")

    if callback is not None:
        callback(0.0, amps.copy())
    for step in range(grid.n_z):
        if strang:
            amps = stepper.diffract(amps, grid.dz / 2)
            check("diffraction")
            amps = stepper.absorb(amps, grid.dz)
            check("absorption")
            amps = stepper.nonlinear(amps, grid.dz)
            check("nonlinearity")
            amps = stepper.diffract(amps, grid.dz / 2)
            check("diffraction")
        else:
            amps = stepper.diffract(amps, grid.dz)
            check("diffraction")
            amps = stepper.absorb(amps, grid.dz)
            check("absorption")
            amps = stepper.nonlinear(amps, grid.dz)
            check("nonlinearity")
        amps = stepper.edge_damp(amps, grid.dz)
        if callback is not None:
            callback((step + 1) * grid.dz, amps.copy())
    return HarmonicField(amps, z=grid.n_z * grid.dz)


def gaussian_profile(a: float):
    """Radial profile exp(-(r/a)^2) for a Gaussian source of 1/e radius a."""
    if a <= 0:
        raise DomainError("source radius must be positive")

    def profile(r: np.ndarray) -> np.ndarray:
        return np.exp(-((r / a) ** 2))

    profile.radius = a  # lets the solver check the domain-width invariant
    return profile
