"""Nonlinear acoustic propagation: plane-wave and axisymmetric beam solvers.

Both solvers march a state along z in steps of dz. Each builds its list of
named substeps once, before marching, with every coefficient that does not
change between steps already computed; a substep that would be the identity
(no loss, or a linear medium) is left out. ``_march`` then applies the list
once per step. After each substep it raises ``DivergenceError`` naming that
substep if the state is non-finite or above the solver's limit (a max and
a min over its real view decide most states; the exact max |z| the rest),
and it calls ``callback(z, state)`` at z = 0 and after every step.

Both march complex harmonic amplitudes A_n, n = 1..N, by the first-order
frequency-domain split step of Aanonsen et al. (1984): exact per-harmonic
absorption when delta > 0, and quadratic coupling when beta > 0, which takes
the harmonics of p^2 with one zero-padded ``irfft``/``rfft`` pair (Lee &
Hamilton 1995), in N log N rather than N^2. A march whose spectrum ends
piled up at the top harmonic, truncated past the shock, is a validity error.

The axisymmetric (KZK) solver adds Crank-Nicolson radial diffraction before
and an absorbing edge ramp after, and steps the coupling by forward Euler.
Diffraction stacks the per-harmonic tridiagonal systems into one
block-diagonal system. Its matrix is strictly diagonally dominant, so cyclic
reduction (Hockney 1965) solves it without pivoting: ``_factor_tridiagonal``
does the matrix work once per march and ``solve_banded`` makes one numpy
solve per substep. Its limit is 10 p0 max(1, max|profile|).

The plane-wave (Westervelt) solver is that march without diffraction, at
n_r = 1 (Hamilton & Blackstock 1998, ch. 4), over one periodic cycle in
retarded time: 16 ``n_harm_out`` harmonics over p0, limit 10, coupling by
explicit midpoint. Its callback and result get the ``irfft`` of the
harmonics onto ``n_time`` samples, so ``n_time`` sets only the waveform's
resolution. ``harmonic_spectrum`` reads a few bins of such a waveform
through a cached DFT table, for callers that read one at every step.

``fubini_harmonics`` takes its Bessel function from Miller's backward
recurrence. The module needs numpy alone and loads no scipy; no table or
factorization is built before a call needs it.

Amplitude convention for the harmonic field: p(r, z, tau) =
Re{ sum_n A_n(r, z) exp(i n w tau) }, so |A_n| is directly the measured
amplitude of harmonic n in Pa.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigurationError,
    DataError,
    DivergenceError,
    DomainError,
    FramingError,
    NumericalError,
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
        for name, value in (("beta", self.beta), ("delta", self.delta)):
            if not (math.isfinite(value) and value >= 0):
                raise DomainError(f"medium requires a finite {name} >= 0, got {value!r}")
        # the shock distance and the solvers' nonlinear terms scale with rho0 c^3
        with np.errstate(over="ignore"):
            if not np.isfinite(np.float64(self.rho0) * np.float64(self.c) ** 3):
                raise DomainError(f"medium requires a finite rho0 c^3, got rho0 = {self.rho0!r}, c = {self.c!r}")


@dataclass(frozen=True)
class SourceWaveform:
    p0: float
    f0: float
    kind: str = "sine"
    phase: float = 0.0

    def __post_init__(self):
        for name, value in (("p0", self.p0), ("f0", self.f0)):
            if not (math.isfinite(value) and value > 0):
                raise DomainError(f"source requires a finite {name} > 0, got {value!r}")
        if not math.isfinite(self.phase):
            raise DomainError(f"source requires a finite phase, got {self.phase!r}")
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


@dataclass(frozen=True)
class PlaneWaveGrid:
    n_time: int
    n_steps: int
    dz: float
    z_max: float

    def __post_init__(self):
        if self.n_time < 64 or self.n_time & (self.n_time - 1):
            raise ConfigurationError("n_time must be a power of two >= 64")
        if self.n_steps < 1:
            raise ConfigurationError("n_steps >= 1 required")
        for name, value in (("dz", self.dz), ("z_max", self.z_max)):
            if not (math.isfinite(value) and value > 0):
                raise ConfigurationError(f"a finite {name} > 0 required, got {value!r}")
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
        if self.n_r < 32 or self.n_z < 1:
            raise ConfigurationError("n_r >= 32 and n_z >= 1 required")
        for name, value in (("dr", self.dr), ("dz", self.dz)):
            if not (math.isfinite(value) and value > 0):
                raise ConfigurationError(f"a finite {name} > 0 required, got {value!r}")
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


@dataclass
class TimeWaveform:
    samples: np.ndarray = field(repr=False)
    fs: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if not (math.isfinite(self.fs) and self.fs > 0):
            raise DomainError(f"fs must be finite and positive, got {self.fs!r}")


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
    if not (n >= 1 and float(n).is_integer()):
        raise DomainError(f"harmonic index must be a positive integer, got {n!r}")
    if not sigma >= 0:
        raise DomainError(f"sigma must be nonnegative, got {sigma!r}")
    if sigma > 1:
        raise ValidityError("pre-shock series is valid only up to sigma = 1")
    if sigma == 0:
        return 1.0 if n == 1 else 0.0
    x = int(n) * float(sigma)
    return 2.0 * _bessel_j(int(n), x) / x


# Miller's recurrence rescales its running values by this power of two
# whenever one passes its inverse, exactly; one step multiplies them by at
# most 2 m / x, which stays below 2^400 for x >= 1e-100
_MILLER_RESCALE = 2.0**-600


def _bessel_j(n: int, x: float) -> float:
    """J_n(x) for an integer n >= 1 and 0 < x <= n, by Miller's backward recurrence.

    J_{k-1} = (2k / x) J_k - J_{k+1} runs down from J_{m+1} = 0, J_m = 1 at
    an even m well past n, where the true J_m is negligible; J_0 + 2 sum_k
    J_2k = 1 then normalizes the run. The work is O(n) Python float steps.
    Against 40-digit values at sampled n <= 256 and x / n in [1e-3, 1] it
    errs by at most 1.5e-14 relative (scipy's ``jv`` by up to 2.1e-13), until
    the result nears underflow. Below x = 1e-100, J_n(x) is (x/2)^n / n! to
    double precision, and that product is returned instead.
    """
    if x < 1e-100:
        term = 1.0
        for i in range(1, n + 1):
            term *= x / (2 * i)
        return term
    m = 2 * ((n + 16 + math.isqrt(40 * n)) // 2 + 1)
    j_up, j = 0.0, 1.0  # J_{k+1} and J_k, unnormalized
    even_sum = jn = 0.0  # the even orders passed so far, J_m + ... + J_2; J_n once passed
    for k in range(m, 0, -1):
        if k % 2 == 0:
            even_sum += j
        j_up, j = j, (2 * k / x) * j - j_up
        if k - 1 == n:
            jn = j
        if abs(j) > 1 / _MILLER_RESCALE:
            j, j_up, even_sum, jn = (v * _MILLER_RESCALE for v in (j, j_up, even_sum, jn))
    return jn / (j + 2.0 * even_sum)


def analytic_gaussian_axis(src: SourceWaveform, a: float, medium: Medium, z: float) -> float:
    """Linear on-axis amplitude of a Gaussian source: p0 / sqrt(1 + (z/z_R)^2)."""
    if not (math.isfinite(a) and a > 0):
        raise DomainError(f"source radius a must be finite and positive, got {a!r}")
    if not z >= 0:
        raise DomainError(f"z must be nonnegative, got {z!r}")
    k = 2 * np.pi * src.f0 / medium.c
    z_r = k * a**2 / 2
    return float(src.p0 / np.sqrt(1.0 + (z / z_r) ** 2))


def rayleigh_distance(src: SourceWaveform, a: float, medium: Medium) -> float:
    if not (math.isfinite(a) and a > 0):
        raise DomainError(f"source radius a must be finite and positive, got {a!r}")
    return 2 * np.pi * src.f0 / medium.c * a**2 / 2


# === spectral analysis ===


def harmonic_spectrum(w: TimeWaveform, f0: float, n_max: int) -> np.ndarray:
    """Amplitudes of harmonics 1..n_max of f0, unit-sine normalized.

    The waveform must hold an integer number of f0 cycles; harmonics must
    stay below Nyquist. The n_max DFT bins are read through a cached table
    of their cosines and sines (``_dft_table``), not a full ``rfft``; the
    two agree to a few ulps. The product is an ``einsum``, which calls no
    BLAS, so the result's bits do not depend on the BLAS thread count.
    """
    if not (math.isfinite(f0) and f0 > 0) or n_max < 1:
        raise DomainError(f"a finite f0 > 0 and n_max >= 1 required, got f0 = {f0!r}, n_max = {n_max!r}")
    n = w.samples.shape[-1]
    cycles = n / w.fs * f0
    cycles_int = round(cycles)
    if cycles_int < 1 or abs(cycles - cycles_int) > 1e-6 * max(cycles, 1.0):
        raise FramingError("waveform must span an integer number of f0 cycles")
    if n_max * cycles_int >= n // 2 + 1:
        raise FramingError("requested harmonics reach past Nyquist")
    re_im = np.einsum("kt,t->k", _dft_table(n, cycles_int, n_max), w.samples)
    return 2.0 * np.hypot(re_im[:n_max], re_im[n_max:]) / n


@functools.lru_cache(maxsize=4)
def _dft_table(n: int, cycles: int, n_max: int) -> np.ndarray:
    """Read-only DFT rows of bins k = h cycles, h = 1..n_max, for n samples.

    Rows 0..n_max-1 hold cos(2 pi k t / n) and rows n_max..2 n_max-1 hold
    -sin(2 pi k t / n), so the table times the samples gives the real parts
    and then the imaginary parts of those ``rfft`` bins. The phase k t is
    reduced mod n in integers before it is scaled, so every angle lies in
    [0, 2 pi) however large k t grows.
    """
    k = np.arange(1, n_max + 1)[:, None] * cycles
    angle = (k * np.arange(n)) % n * (2 * np.pi / n)
    table = np.empty((2 * n_max, n))
    np.cos(angle, out=table[:n_max])
    np.sin(angle, out=table[n_max:])
    np.negative(table[n_max:], out=table[n_max:])
    table.flags.writeable = False
    return table


# === the march ===


# a hair above sqrt(2): |z| <= sqrt(2) max(|Re z|, |Im z|) still holds after
# either side is rounded, so the cheap bound never passes a state that fails
_HYPOT_BOUND = 1.4142135623731


def _within_limit(state: np.ndarray, limit: float) -> bool:
    """Whether every |state| is finite and at most ``limit``.

    A max and a min over the real view, with no temporary, give the largest
    |component|: for a real state that is max |x| itself, and for a complex
    one it bounds |z| once scaled by _HYPOT_BOUND. A state that bound leaves
    in doubt is decided by the exact max |z|. A NaN fails every comparison.
    """
    if state.flags.c_contiguous and state.dtype in (np.float64, np.complex128):
        parts = state.view(np.float64)
        bound = _HYPOT_BOUND if state.dtype == np.complex128 else 1.0
        if parts.max() * bound <= limit and -parts.min() * bound <= limit:
            return True
    peak = np.abs(state).max()
    return bool(np.isfinite(peak) and peak <= limit)


def _march(state, substeps, n_steps: int, dz: float, limit: float, solver: str, callback):
    """Apply the (name, function) ``substeps`` in order, ``n_steps`` times."""
    if callback is not None:
        callback(0.0, state.copy())
    for step in range(n_steps):
        for name, apply in substeps:
            state = apply(state)
            if not _within_limit(state, limit):
                raise DivergenceError(f"{solver} march diverged in the {name} substep")
        if callback is not None:
            callback((step + 1) * dz, state.copy())
    return state


# === plane-wave solver ===


def _plane_march(medium: Medium, src: SourceWaveform, grid: PlaneWaveGrid, n_harm_out: int, read):
    """March harmonics 1..N = 16 ``n_harm_out`` of the source cycle over p0 to z_max; returns
    the cycle there. Each step is the exact absorption, then one explicit-midpoint coupling
    step (forward Euler errs 4e3 times more on criterion 1). ``read(z, a, cycle)`` sees the
    (N, 1) state at z = 0 and after every step; ``cycle(z, a)`` gives its ``n_time`` samples.
    The source mean enters p^2 only as 2 mean p, which turns harmonic n by n w beta mean z /
    (rho0 c^3): that turn commutes with the march, so ``cycle`` alone adds it.
    """
    n_harm = 16 * n_harm_out
    if grid.n_time <= 2 * n_harm:
        raise ConfigurationError(f"n_time={grid.n_time} must exceed {2 * n_harm}, twice the {n_harm} harmonics marched")
    omega = 2 * np.pi * src.f0
    spec = np.fft.rfft(src.samples(4 * n_harm) / src.p0, norm="forward")  # on the coupling's grid
    mean = spec[0].real
    turn_n = omega * medium.beta / (medium.rho0 * medium.c**3) * (mean * src.p0) * np.arange(1, n_harm + 1)

    def cycle(z: float, a: np.ndarray) -> np.ndarray:
        half = np.concatenate(([mean], 0.5 * a[:, 0] * np.exp(1j * z * turn_n)))
        return src.p0 * np.fft.irfft(half, n=grid.n_time, norm="forward")

    substeps = _absorption(medium, omega, n_harm, grid.dz)
    if medium.beta > 0:
        # at dz = x_shock/16 a march to sigma = 0.5 errs 6e-3 on B3; one step there, 15 %
        x_shock = shock_formation_distance(medium, src)
        if grid.dz > x_shock / 16:
            raise ValidityError(f"dz={grid.dz:g} m exceeds x_shock/16={x_shock / 16:g} m; the march is under-resolved")
        gain_dz = src.p0 * _coupling_gain(medium, omega, n_harm, grid.dz)
        coupling = _coupling(n_harm, 1)
        substeps.append(("nonlinearity", lambda q: q + gain_dz * coupling(q + 0.5 * gain_dz * coupling(q))))
    # a step many shock distances long can overflow the coupling; the check after it names it
    with np.errstate(over="ignore", invalid="ignore"):
        a = _march(2 * spec[1 : n_harm + 1, None], substeps, grid.n_steps, grid.dz, 10.0, "plane-wave",
                   None if read is None else lambda z, state: read(z, state, cycle))
    _check_truncation(np.abs(a[:, 0]) ** 2)
    return TimeWaveform(cycle(grid.n_steps * grid.dz, a), fs=grid.n_time * src.f0)


def simulate_westervelt_plane(
    medium: Medium,
    src: SourceWaveform,
    grid: PlaneWaveGrid,
    n_harm_out: int = 4,
    callback=None,
) -> TimeWaveform:
    """March one periodic cycle to z_max; returns the distorted steady-state cycle.

    ``n_harm_out`` declares how many harmonics downstream analysis will
    read; the march carries 16 times as many. ``callback(z, samples)`` is
    invoked at z=0 and after every step with the cycle on ``grid.n_time``
    samples.
    """
    read = None if callback is None else lambda z, a, cycle: callback(z, cycle(z, a))
    return _plane_march(medium, src, grid, n_harm_out, read)


def westervelt_harmonic_curve(
    medium: Medium, src: SourceWaveform, grid: PlaneWaveGrid, n_max: int = 4
) -> tuple[np.ndarray, np.ndarray, TimeWaveform]:
    """Harmonic ratios |p_n|/p0 recorded along the march.

    Returns (z, ratios, final) with ratios shaped (n_steps + 1, n_max) and
    final the cycle at z_max, as ``simulate_westervelt_plane`` returns it.
    """
    zs: list[float] = []
    rows: list[np.ndarray] = []

    def record(z, a, cycle):
        zs.append(z)
        rows.append(np.abs(a[:n_max, 0]))

    final = _plane_march(medium, src, grid, n_max, record)
    return np.asarray(zs), np.asarray(rows), final


# === axisymmetric harmonic solver ===


def _radial_laplacian_bands(n_r: int, dr: float) -> tuple[np.ndarray, np.ndarray]:
    """Finite-volume axisymmetric Laplacian L as its off-diagonals (lower, upper).

    Row i couples x[i - 1] by lower[i] and x[i + 1] by upper[i]. Conservative
    form: every row sums to zero, so the diagonal is -(lower + upper), and L is
    self-adjoint under the cell-volume weights, which is what makes the
    Crank-Nicolson diffraction step exactly energy-preserving ahead of the
    edge absorber. The outermost cell keeps its Dirichlet ghost (pressure
    release) implicitly: upper[-1] counts in its diagonal, but the matrix
    drops it as an off-diagonal.
    """
    i = np.arange(n_r, dtype=np.float64)
    r_minus = (i - 0.5) * dr
    r_plus = (i + 0.5) * dr
    vol = radial_weights(n_r, dr)
    lower = np.zeros(n_r)  # axis cell: single flux through r = dr/2
    lower[1:] = r_minus[1:] / (dr * vol[1:])
    upper = r_plus / (dr * vol)
    return lower, upper


def radial_weights(n_r: int, dr: float) -> np.ndarray:
    """Cell areas /(2 pi): integral of r dr over each radial cell."""
    i = np.arange(n_r, dtype=np.float64)
    vol = i * dr * dr
    vol[0] = dr * dr / 8.0
    return vol


def harmonic_energy(amps: np.ndarray, dr: float) -> np.ndarray:
    """Per-harmonic cross-section integrals of |A_n|^2 r dr under the solver's weights."""
    return np.sum(np.abs(amps) ** 2 * radial_weights(amps.shape[1], dr), axis=1)


def _coupling(n_harm: int, n_r: int):
    """The map amps -> S, the harmonic components of p^2, for (n_harm, n_r) states.

    Under the half-amplitude convention S_n = sum_{m<n} A_m A_{n-m} +
    2 sum_{m>n} A_m conj(A_{m-n}); products that would land above n_harm are
    truncated, never wrapped.

    With p = Re{sum_n A_n e^{i n theta}} sampled on M = 4 n_harm points
    (``irfft`` of A scaled by 2/M), p^2 holds harmonics up to 2 n_harm. Those
    above n_harm alias to bins M - k > n_harm, so bins 1..n_harm of
    ``rfft(p^2)``, times 4/M, equal S_n: S = M rfft(irfft(A)^2). The result
    differs from the term-by-term sum by roundoff, a few ulps of the local
    energy sum_n |A_n|^2. The FFT work arrays are allocated once, so a march
    reuses them at every step.
    """
    m = 4 * n_harm  # > 3 n_harm: products above n_harm alias to bins past it
    spec = np.zeros((n_r, m // 2 + 1), dtype=np.complex128)
    square = np.empty((n_r, m))
    out = np.empty_like(spec)

    def coupling(amps: np.ndarray) -> np.ndarray:
        spec[:, 1 : n_harm + 1] = amps.T
        np.fft.irfft(spec, n=m, out=square)
        np.square(square, out=square)
        np.fft.rfft(square, out=out)
        return (m * out[:, 1 : n_harm + 1]).T

    return coupling


def _absorption(medium: Medium, omega: float, n_harm: int, dz: float) -> list:
    """The exact decay of harmonics 1..n_harm over dz as a substep list, empty if delta = 0."""
    if medium.delta == 0:
        return []
    n = np.arange(1, n_harm + 1)
    with np.errstate(over="ignore"):  # an exponent that overflows to -inf decays to 0
        decay = np.exp(-medium.delta * (n * omega) ** 2 * dz / (2 * medium.c**3))[:, None]
    return [("absorption", lambda amps: amps * decay)]


def _coupling_gain(medium: Medium, omega: float, n_harm: int, dz: float) -> np.ndarray:
    """dz i n w beta / (4 rho0 c^3), shape (n_harm, 1): dz times dA_n/dz per unit ``_coupling`` S_n."""
    n = np.arange(1, n_harm + 1)
    gain = 1j * n * omega * medium.beta / (4 * medium.rho0 * medium.c**3)
    return dz * gain[:, None]


def _check_truncation(energy: np.ndarray) -> None:
    """Raise ``ValidityError`` if the per-harmonic energies of a march end piled up at the top.

    A resolved spectrum decays with n; past the shock a truncated series
    piles up at the top harmonic instead. The share of the energy that the
    first harmonic left out would hold, extrapolated geometrically from the
    top two as E_N^2 / (E_{N-1} sum E), tells the two apart.
    """
    dropped = energy[-1] ** 2 / (energy[-2] * energy.sum()) if energy[-1] > 0 else 0.0
    if dropped > 1e-6:
        raise ValidityError(
            f"the harmonic series is truncated: harmonic {energy.shape[0] + 1}, left out, would "
            f"hold about {dropped:.3g} of the energy (limit 1e-6); raise n_harm"
        )


def _factor_tridiagonal(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray) -> tuple:
    """Cyclic-reduction factors, for ``solve_banded``, of the n x n tridiagonal
    matrix with sub-diagonal ``lower``, diagonal ``diag`` and super-diagonal
    ``upper`` (lengths n - 1, n and n - 1).

    A level of the reduction (Hockney 1965) keeps the even rows and adds to
    row 2k alpha_k times row 2k - 1 and gamma_k times row 2k + 1, which clears
    its couplings to the odd unknowns. What is left is a tridiagonal system in
    the even unknowns, half as long; an odd length keeps its last row as it
    is. Levels repeat down to one unknown. None of this depends on the
    right-hand side, so it is done here, once. Each level stores alpha, gamma,
    the reciprocals of its odd pivots, and the back-substitution weights
    -lower / pivot and -upper / pivot of its odd rows.

    Without pivoting the reduction needs |diag| >= |lower| + |upper| in every
    row, and a level keeps that property. Raises ``NumericalError`` if a row
    fails it, or if a pivot or a stored weight is zero or not finite.
    """
    n = diag.shape[0]
    dtype = np.result_type(lower, diag, upper)
    a = np.zeros(n, dtype)  # a[i] couples row i to x[i - 1]
    a[1:] = lower
    c = np.zeros(n, dtype)  # c[i] couples row i to x[i + 1]
    c[:-1] = upper
    b = np.array(diag, dtype=dtype)
    weak = ~(np.abs(b) >= np.abs(a) + np.abs(c))  # a NaN is weak too
    if weak.any():
        raise NumericalError(
            f"tridiagonal diffraction matrix is not diagonally dominant in row {int(np.argmax(weak))}, "
            "so cyclic reduction without pivoting could meet a singular pivot"
        )
    levels = []
    with np.errstate(all="ignore"):  # a zero or overflowed pivot fails the check below
        while b.shape[0] > 1:
            n_even_tail = (b.shape[0] - 1) // 2  # even rows after row 0
            inv = 1.0 / b[1::2]
            odd_a, odd_c = a[1::2], c[1::2]
            alpha = -a[2::2] * inv[:n_even_tail]
            gamma = -c[0::2][: inv.shape[0]] * inv
            levels.append((alpha, gamma, inv, -odd_a * inv, -odd_c[:n_even_tail] * inv[:n_even_tail]))
            b = b[0::2].copy()
            b[1:] += alpha * odd_c[:n_even_tail]
            b[: gamma.shape[0]] += gamma * odd_a
            a = np.zeros_like(b)
            a[1:] = alpha * odd_a[:n_even_tail]
            c = np.zeros_like(b)
            c[: gamma.shape[0]] = gamma * odd_c
        inv_last = 1.0 / b
    stored = np.concatenate([inv_last, *(w for level in levels for w in level)])
    if not (np.isfinite(stored).all() and inv_last.all() and all(level[2].all() for level in levels)):
        raise NumericalError(
            "tridiagonal diffraction matrix is singular to working precision: "
            "a cyclic-reduction pivot or weight is zero or not finite"
        )
    return levels, inv_last


def solve_banded(factors: tuple, b: np.ndarray) -> np.ndarray:
    """Solve A x = b with the cyclic-reduction ``factors`` of A from ``_factor_tridiagonal``.

    The forward pass folds each level's odd entries of ``b`` into its even
    ones, level by level down to one unknown; back substitution then gives
    each level's odd unknowns from their even neighbours. Each level works
    in place on strided views of ``b``, which ends holding x and is returned.
    """
    levels, inv_last = factors
    views = []
    rest = b
    for alpha, gamma, *_ in levels:
        even, odd = rest[0::2], rest[1::2]
        even[1:] += alpha * odd[: alpha.shape[0]]
        even[: gamma.shape[0]] += gamma * odd
        views.append((even, odd))
        rest = even
    rest *= inv_last
    for (even, odd), (_, _, inv, lo, up) in zip(reversed(views), reversed(levels)):
        odd *= inv
        odd += lo * even[: odd.shape[0]]
        odd[: up.shape[0]] += up * even[1:]
    return b


def _kzk_substeps(medium: Medium, src: SourceWaveform, grid: AxisymGrid) -> list:
    """The named substeps of one KZK step of dz, each built once."""
    omega = 2 * np.pi * src.f0
    n = np.arange(1, grid.n_harm + 1)

    # Crank-Nicolson per harmonic over dz solves (I + c_n L) x = (I - c_n L) a,
    # c_n = i dz / (4 k_n), which is x = 2 (I + c_n L)^-1 a - a. So the matrix
    # is (I + c_n L) / 2 and a step is one solve and one subtraction. The
    # harmonics' matrices sit one after another in a single tridiagonal
    # system; the entries that would couple neighbouring blocks stay zero. The
    # diagonal is formed from the scaled off-diagonals, the outer ghost's
    # included, so |diag| >= |lower| + |upper| holds after rounding too, at any
    # dz / (k dr^2). The matrix is the same at every step: it is factored
    # here, once.
    lower, upper = _radial_laplacian_bands(grid.n_r, grid.dr)
    half_coef = (0.5j * grid.dz / (4 * n * omega / medium.c))[:, None]
    sub = half_coef * lower
    sup = half_coef * upper
    diag = 0.5 - (sub + sup)
    sup[:, -1] = 0.0
    factors = _factor_tridiagonal(sub.ravel()[1:], diag.ravel(), sup.ravel()[:-1])

    def diffract(amps):
        x = solve_banded(factors, amps.flatten())
        x -= amps.ravel()
        return x.reshape(amps.shape)

    substeps = [("diffraction", diffract), *_absorption(medium, omega, grid.n_harm, grid.dz)]
    if medium.beta > 0:
        gain_dz = _coupling_gain(medium, omega, grid.n_harm, grid.dz)
        coupling = _coupling(grid.n_harm, grid.n_r)
        substeps.append(("nonlinearity", lambda amps: amps + gain_dz * coupling(amps)))
    # quadratic absorbing ramp over the outer 10% of the radius
    i0 = int(np.floor(0.9 * grid.n_r))
    edge_rate = np.zeros(grid.n_r)
    width_m = (grid.n_r - 1 - i0) * grid.dr
    if width_m > 0:
        x = (np.arange(grid.n_r) - i0) / (grid.n_r - 1 - i0)
        edge_rate = np.where(x > 0, x**2, 0.0) * (30.0 / width_m)
    edge = np.exp(-edge_rate * grid.dz)[None, :]
    substeps.append(("edge ramp", lambda amps: amps * edge))
    return substeps


def simulate_kzk_axisym(
    medium: Medium,
    src: SourceWaveform,
    source_profile,
    grid: AxisymGrid,
    *,
    callback=None,
) -> HarmonicField:
    """Split-step march of the axisymmetric parabolic harmonic equations.

    ``source_profile(r)`` gives the dimensionless radial amplitude of the
    fundamental at z=0 (scaled by src.p0). First-order splitting: diffraction,
    absorption, nonlinearity per dz. ``callback(z, amps)`` sees the state
    at z=0 and after each step. A march whose first left-out harmonic would
    hold more than 1e-6 of the radially weighted energy, extrapolated from the
    top two, raises ``ValidityError``.
    """
    if src.kind != "sine":
        raise DomainError("axisymmetric harmonic solver requires a sine source")
    radius = getattr(source_profile, "radius", None)
    if radius is not None:
        if grid.n_r * grid.dr < 4.0 * radius:
            raise ConfigurationError("radial domain must span at least 4x the source radius")
        # split-step resolution: a step must stay well inside the Rayleigh
        # distance and the source must span several radial cells
        z_r = rayleigh_distance(src, radius, medium)
        if grid.dz > z_r / 8:
            raise ValidityError(
                f"dz={grid.dz:g} m exceeds z_R/8={z_r / 8:g} m; the march would be under-resolved"
            )
        if radius / grid.dr < 4:
            raise ValidityError(
                f"source radius spans {radius / grid.dr:.3g} radial cells; need >= 4"
            )
    amps = np.zeros((grid.n_harm, grid.n_r), dtype=np.complex128)
    prof = np.asarray(source_profile(grid.r), dtype=np.float64)
    if prof.shape != (grid.n_r,):
        raise FramingError("source_profile must return one value per radial node")
    if not np.all(np.isfinite(prof)):
        raise DataError("source_profile must be finite on the radial grid")
    amps[0] = src.p0 * prof * np.exp(1j * src.phase)

    substeps = _kzk_substeps(medium, src, grid)
    limit = 10 * src.p0 * max(1.0, float(np.max(np.abs(prof))))
    amps = _march(amps, substeps, grid.n_z, grid.dz, limit, "axisymmetric", callback)
    # the share is scale-free, so it is taken of amps / p0, whose squares cannot overflow
    _check_truncation(harmonic_energy(amps / src.p0, grid.dr))
    return HarmonicField(amps, z=grid.n_z * grid.dz)


def gaussian_profile(a: float):
    """Radial profile exp(-(r/a)^2) for a Gaussian source of 1/e radius a."""
    if not (math.isfinite(a) and a > 0):
        raise DomainError(f"source radius a must be finite and positive, got {a!r}")

    def profile(r: np.ndarray) -> np.ndarray:
        return np.exp(-((r / a) ** 2))

    profile.radius = a  # lets the solver check the domain-width invariant
    return profile
