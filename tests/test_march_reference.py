"""The substep marches against inline copies of per-step solvers.

The references below rebuild every coefficient inside each step and write
each march out step by step. The reference KZK step forms the
Crank-Nicolson right-hand side explicitly and solves with scipy's
``solve_banded`` (LAPACK, partial pivoting); ``simulate_kzk_axisym`` solves
by numpy cyclic reduction in the form x = 2 (I + cL)^-1 a - a, so each of
its states must agree within KZK_RTOL of that state's max |A|. The
reference plane march sums its coupling by ``np.convolve`` and
``np.correlate`` and its waveform as a cosine series, so
``westervelt_harmonic_curve`` must agree with it within PLANE_RTOL.

``_coupling`` (an FFT) is held to the O(N^2) loop over (n, m) within a
roundoff bound, and the plane march to the one-shot characteristics
solution of the lossless simple wave, ``np.interp(..., period=)``.
"""

import itertools

import numpy as np
import pytest
from scipy.linalg import solve_banded

from nars import wavefield
from nars.errors import DivergenceError
from nars.wavefield import (
    AxisymGrid,
    Medium,
    PlaneWaveGrid,
    SourceWaveform,
    _coupling,
    _radial_laplacian_bands,
    gaussian_profile,
    rayleigh_distance,
    shock_formation_distance,
    simulate_kzk_axisym,
    simulate_westervelt_plane,
    westervelt_harmonic_curve,
)


class _ReferenceKzk:
    def __init__(self, medium, src, grid):
        self.medium, self.grid = medium, grid
        self.omega = 2 * np.pi * src.f0
        self.lower, self.upper = _radial_laplacian_bands(grid.n_r, grid.dr)
        self.diag = -(self.lower + self.upper)  # every row of L sums to zero
        i0 = int(np.floor(0.9 * grid.n_r))
        ramp = np.zeros(grid.n_r)
        width_m = (grid.n_r - 1 - i0) * grid.dr
        if width_m > 0:
            x = (np.arange(grid.n_r) - i0) / (grid.n_r - 1 - i0)
            ramp = np.where(x > 0, x**2, 0.0) * (30.0 / width_m)
        self.edge_rate = ramp

    def diffract(self, amps, dz):
        out = np.empty_like(amps)
        for idx in range(self.grid.n_harm):
            k_n = (idx + 1) * self.omega / self.medium.c
            coef = 1j * dz / (4 * k_n)
            ab = np.zeros((3, self.grid.n_r), dtype=np.complex128)
            ab[0, 1:] = coef * self.upper[:-1]
            ab[1, :] = 1.0 + coef * self.diag
            ab[2, :-1] = coef * self.lower[1:]
            coef = -1j * dz / (4 * k_n)
            a = amps[idx]
            rhs = (1.0 + coef * self.diag) * a
            rhs[:-1] += coef * self.upper[:-1] * a[1:]
            rhs[1:] += coef * self.lower[1:] * a[:-1]
            out[idx] = solve_banded((1, 1), ab, rhs)
        return out

    def absorb(self, amps, dz):
        if self.medium.delta == 0:
            return amps
        n = np.arange(1, self.grid.n_harm + 1)
        decay = np.exp(-self.medium.delta * (n * self.omega) ** 2 * dz / (2 * self.medium.c**3))
        return amps * decay[:, None]

    def nonlinear(self, amps, dz):
        if self.medium.beta == 0:
            return amps
        n = np.arange(1, self.grid.n_harm + 1)
        gain = 1j * n * self.omega * self.medium.beta / (4 * self.medium.rho0 * self.medium.c**3)
        return amps + dz * gain[:, None] * _coupling(*amps.shape)(amps)

    def edge_damp(self, amps, dz):
        return amps * np.exp(-self.edge_rate * dz)[None, :]


def _reference_kzk(medium, src, profile, grid):
    stepper = _ReferenceKzk(medium, src, grid)
    amps = np.zeros((grid.n_harm, grid.n_r), dtype=np.complex128)
    amps[0] = src.p0 * np.asarray(profile(grid.r), dtype=np.float64) * np.exp(1j * src.phase)
    states = [amps.copy()]
    for _ in range(grid.n_z):
        amps = stepper.diffract(amps, grid.dz)
        amps = stepper.absorb(amps, grid.dz)
        amps = stepper.nonlinear(amps, grid.dz)
        amps = stepper.edge_damp(amps, grid.dz)
        states.append(amps.copy())
    return amps, states


def _reference_westervelt_curve(medium, src, grid, n_max):
    """The plane march written out: N = 16 n_max harmonics of the source cycle on
    4 N points, exact absorption, then a midpoint step of the quadratic
    coupling, whose sums come from a convolution and a correlation."""
    n_harm = 16 * n_max
    n = np.arange(1, n_harm + 1)
    omega = 2 * np.pi * src.f0
    spec = np.fft.rfft(src.samples(4 * n_harm)) / (4 * n_harm)
    mean, amps = spec[0].real, 2 * spec[1 : n_harm + 1]

    def rate(a):
        # S_n = sum_{m<n} A_m A_{n-m} + 2 sum_{m>n} A_m conj(A_{m-n})
        below = np.convolve(a, a)[: n_harm - 1]  # n = 2..N
        above = np.correlate(a, a, "full")[n_harm:]  # n = 1..N-1
        s = np.zeros(n_harm, dtype=np.complex128)
        s[1:] += below
        s[:-1] += 2 * above
        return 1j * n * omega * medium.beta / (4 * medium.rho0 * medium.c**3) * s

    zs, rows = [0.0], [np.abs(amps[:n_max]) / src.p0]
    for step in range(grid.n_steps):
        amps = amps * np.exp(-medium.delta * (n * omega) ** 2 * grid.dz / (2 * medium.c**3))
        if medium.beta > 0:
            amps = amps + grid.dz * rate(amps + 0.5 * grid.dz * rate(amps))
        zs.append((step + 1) * grid.dz)
        rows.append(np.abs(amps[:n_max]) / src.p0)
    # the mean advects the cycle by beta mean z / (rho0 c^3) in retarded time
    shift = medium.beta * mean * zs[-1] / (medium.rho0 * medium.c**3)
    tau = np.arange(grid.n_time) / (grid.n_time * src.f0) + shift
    final = mean + sum(np.real(amps[k] * np.exp(1j * (k + 1) * omega * tau)) for k in range(n_harm))
    return np.asarray(zs), np.asarray(rows), final


KZK_SRC = SourceWaveform(p0=1e5, f0=1e6)
KZK_RADIUS = 0.004
# max over the callback states of |A - A_ref| / max |A_ref|, measured: at most
# 1.8e-14 on the grids below and 6.6e-14 on the 256-step, 32-harmonic grid of
# the beam benchmark, rounding that the 24 to 256 steps accumulate
KZK_RTOL = 1e-13


def _assert_states_close(got_states, want_states):
    assert len(got_states) == len(want_states)
    for got, want in zip(got_states, want_states):
        assert np.abs(got - want).max() <= KZK_RTOL * np.abs(want).max()


@pytest.mark.parametrize("beta, delta", list(itertools.product((0.0, 3.5), (0.0, 4.5e-4))))
def test_kzk_march_matches_per_step_reference(beta, delta):
    medium = Medium(rho0=1000.0, c=1500.0, beta=beta, delta=delta)
    z_r = rayleigh_distance(KZK_SRC, KZK_RADIUS, medium)
    grid = AxisymGrid(n_r=96, dr=2e-4, n_z=24, dz=z_r / 24, n_harm=6)
    profile = gaussian_profile(KZK_RADIUS)
    states = []
    field = simulate_kzk_axisym(
        medium, KZK_SRC, profile, grid, callback=lambda z, amps: states.append((z, amps))
    )
    _, expect_states = _reference_kzk(medium, KZK_SRC, profile, grid)
    assert [z for z, _ in states] == [step * grid.dz for step in range(grid.n_z + 1)]
    assert np.array_equal(field.amps, states[-1][1])
    _assert_states_close([amps for _, amps in states], expect_states)


# max |ratio - ratio_ref| and max |p - p_ref| / p0 over the cases below,
# measured: at most 7.8e-16 and 2.0e-15
PLANE_RTOL = 1e-13


def _assert_plane_close(got, want, p0):
    zs, ratios, final = got
    ref_zs, ref_ratios, ref_final = want
    assert np.array_equal(zs, ref_zs)
    assert np.abs(ratios - ref_ratios).max() <= PLANE_RTOL
    assert np.abs(final.samples - ref_final).max() <= PLANE_RTOL * p0


@pytest.mark.parametrize("delta", [0.0, 4.5e-3])
def test_westervelt_curve_matches_per_step_reference(delta):
    medium = Medium(rho0=1000.0, c=1500.0, beta=3.5, delta=delta)
    src = SourceWaveform(p0=1e6, f0=1e6)
    z_max = 0.5 * shock_formation_distance(medium, src)
    grid = PlaneWaveGrid(n_time=512, n_steps=100, dz=z_max / 100, z_max=z_max)
    got = westervelt_harmonic_curve(medium, src, grid, n_max=4)
    _assert_plane_close(got, _reference_westervelt_curve(medium, src, grid, 4), src.p0)


def test_kzk_divergence_names_the_nonlinearity_substep():
    # configs/kzk.ini with beta = 3.5 and p0 = 1e9: the quadratic coupling blows up
    medium = Medium(rho0=1000.0, c=1500.0, beta=3.5, delta=0.0)
    src = SourceWaveform(p0=1e9, f0=1e6)
    grid = AxisymGrid(n_r=96, dr=0.0002, n_z=40, dz=0.002, n_harm=4)
    with pytest.raises(DivergenceError, match="in the nonlinearity substep"):
        simulate_kzk_axisym(medium, src, gaussian_profile(0.004), grid)


def _exact_guard_raises(state, limit):
    """The divergence check as an exact max |z|, before the component bound."""
    peak = np.abs(state).max()
    return not np.isfinite(peak) or peak > limit


LIMIT = 3.7e5
_z = np.zeros((32, 400), dtype=np.complex128)
GUARD_CASES = {
    "nan": (_z, (5, 7), complex(np.nan, 0.0), True),
    "nan-imag": (_z, (5, 7), complex(0.0, np.nan), True),
    "inf": (_z, (31, 399), complex(np.inf, 1.0), True),
    "both-parts-below-but-modulus-above": (_z, (0, 0), 0.8 * (1 + 1j) * LIMIT, True),
    "real-just-above": (np.zeros(8192), (100,), np.nextafter(LIMIT, np.inf), True),
    "real-just-below-negative": (np.zeros(8192), (100,), -np.nextafter(LIMIT, 0.0), False),
    "real-at-limit": (np.zeros(8192), (0,), LIMIT, False),
    "complex-just-above": (_z, (3, 3), complex(np.nextafter(LIMIT, np.inf), 0.0), True),
    "complex-just-below": (_z, (3, 3), complex(0.0, -np.nextafter(LIMIT, 0.0)), False),
    "complex-below-but-past-the-component-bound": (_z, (3, 3), 0.9 * LIMIT + 0.3j * LIMIT, False),
    "modulus-just-below-on-the-diagonal": (_z, (9, 9), np.nextafter(LIMIT, 0.0) * np.exp(0.25j * np.pi), None),
}


@pytest.mark.parametrize("case", GUARD_CASES)
@pytest.mark.parametrize("layout", ["c-order", "transposed"])
def test_divergence_guard_raises_exactly_as_the_exact_check(case, layout):
    base, where, value, raises = GUARD_CASES[case]
    state = base.copy()
    state[where] = value
    if layout == "transposed":
        state = state.T  # not C-contiguous: the exact check alone decides
    want = _exact_guard_raises(state, LIMIT)
    assert raises is None or want == raises
    substeps = [("quiet", lambda s: s), ("probe", lambda s: state)]
    if want:
        with pytest.raises(DivergenceError, match="^toy march diverged in the probe substep$") as info:
            wavefield._march(base.copy(), substeps, 2, 1.0, LIMIT, "toy", None)
        assert info.value.exit_code == 3
    else:
        assert wavefield._march(base.copy(), substeps, 2, 1.0, LIMIT, "toy", None) is state


def test_kzk_march_at_thirty_two_harmonics_matches_per_step_reference():
    # the beam workload's harmonic count: the joined solve spans 32 blocks and
    # the coupling has 31 terms per harmonic
    medium = Medium(rho0=1000.0, c=1500.0, beta=3.5, delta=4.5e-4)
    z_r = rayleigh_distance(KZK_SRC, KZK_RADIUS, medium)
    grid = AxisymGrid(n_r=64, dr=2.5e-4, n_z=8, dz=z_r / 24, n_harm=32)
    profile = gaussian_profile(KZK_RADIUS)
    states = []
    field = simulate_kzk_axisym(
        medium, KZK_SRC, profile, grid, callback=lambda z, amps: states.append(amps)
    )
    _, expect_states = _reference_kzk(medium, KZK_SRC, profile, grid)
    assert np.all(field.amps[-1] != 0)  # every harmonic is reached
    assert np.array_equal(field.amps, states[-1])
    _assert_states_close(states, expect_states)


# === the rewritten kernels ===


def _loop_coupling(amps):
    """S_n summed term by term, one harmonic at a time."""
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


def _interp_period_distort(p, tau, period, eps):
    return np.interp(tau, tau - eps * p, p, period=period)


def _wrap_side(p, tau, period, eps):
    """Which end of y = tau - eps p leaves [0, period), if either."""
    y = tau - eps * p
    return "low" if y[0] < 0 else "high" if y[-1] >= period else "none"


# |S_fft - S_loop| at a radial point, over that point's energy sum_n |A_n|^2,
# which bounds every |S_n| there up to a factor 3. Measured: at most 7.7e-16
# for N = 2..256 over 20 seeds each. The point's max |S_n| is no scale: it is
# exactly 0 when one harmonic above N/2 holds all the energy, and the FFT's
# roundoff is not.
COUPLING_RTOL = 1e-14


def _random_amps(n_harm, seed):
    rng = np.random.default_rng(seed)
    shape = (n_harm, 37)
    mag = 10.0 ** rng.uniform(-3, 5, shape)
    amps = mag * np.exp(1j * rng.uniform(-np.pi, np.pi, shape))
    amps[rng.random(shape) < 0.15] = 0.0
    amps.real[rng.random(shape) < 0.1] = -0.0
    amps.imag[rng.random(shape) < 0.1] = 0.0
    amps[:, 0] = 0.0  # a column of exact zeros
    return amps


@pytest.mark.parametrize("n_harm", [2, 3, 4, 8, 32, 64, 128, 256])
def test_quadratic_coupling_matches_term_by_term_loop(n_harm):
    amps = _random_amps(n_harm, n_harm)
    got = _coupling(*amps.shape)(amps)
    want = _loop_coupling(amps)
    assert got.shape == want.shape
    assert np.all(got[:, 0] == 0)  # no energy, no roundoff
    energy = np.sum(np.abs(amps) ** 2, axis=0)
    assert np.all(np.abs(got - want) <= COUPLING_RTOL * energy)


@pytest.mark.parametrize("n_harm", [2, 3, 32, 256])
def test_quadratic_coupling_truncates_products_above_the_top_harmonic(n_harm):
    # A_N^2 lands on harmonic 2N, and A_N conj(A_N) on 0: nothing is kept
    amps = np.zeros((n_harm, 5), dtype=np.complex128)
    amps[-1] = np.array([1.0, -2.5 + 1e3j, 3e4j, 7e-3 - 2e-3j, -1e5])
    got = _coupling(*amps.shape)(amps)
    assert np.all(np.abs(got) <= 1e-13 * np.abs(amps[-1]) ** 2)


@pytest.mark.parametrize("n_harm", [2, 4, 32])
def test_quadratic_coupling_of_a_lone_fundamental_is_its_square(n_harm):
    amps = np.zeros((n_harm, 4), dtype=np.complex128)
    amps[0] = np.array([1.0, 3e4 - 2e4j, -7e-3j, 0.5 + 0.25j])
    got = _coupling(*amps.shape)(amps)
    scale = np.abs(amps[0]) ** 2
    assert np.all(np.abs(got[1] - amps[0] ** 2) <= COUPLING_RTOL * scale)
    assert np.all(np.abs(got[0]) <= COUPLING_RTOL * scale)
    assert np.all(np.abs(got[2:]) <= COUPLING_RTOL * scale)


# max |p - p_char| / p0 of a lossless 200-step march to sigma = 0.5 on 512
# samples, measured: 2.3e-5 (sine) and 9.4e-5 (pulse); the time-domain march
# it replaced read 3.3e-3 and 1.5e-2
CHARACTERISTICS_ATOL = 2e-4


@pytest.mark.parametrize(
    "kind, phase, wrap",
    [("sine", np.pi / 2, "low"), ("sine", 3 * np.pi / 2, "high"), ("gaussian_pulse", 0.0, "low")],
)
def test_westervelt_wrapping_sources_match_reference_and_periodic_interp(kind, phase, wrap):
    """Sources whose characteristics leave the cycle at either end: the march
    keeps the reference's harmonics, and its lossless waveform the one-shot
    characteristics solution, which ``np.interp(period=)`` wraps."""
    src = SourceWaveform(p0=1e6, f0=1e6, kind=kind, phase=phase)
    absorbing = Medium(rho0=1000.0, c=1500.0, beta=3.5, delta=4.5e-3)
    z_max = 0.5 * shock_formation_distance(absorbing, src)
    grid = PlaneWaveGrid(n_time=512, n_steps=20, dz=z_max / 20, z_max=z_max)
    got = westervelt_harmonic_curve(absorbing, src, grid, n_max=4)
    _assert_plane_close(got, _reference_westervelt_curve(absorbing, src, grid, 4), src.p0)

    lossless = Medium(rho0=1000.0, c=1500.0, beta=3.5)
    grid = PlaneWaveGrid(n_time=512, n_steps=200, dz=z_max / 200, z_max=z_max)
    final = simulate_westervelt_plane(lossless, src, grid)
    tau = np.arange(grid.n_time) * (src.period() / grid.n_time)
    eps = lossless.beta * z_max / (lossless.rho0 * lossless.c**3)
    p = src.samples(grid.n_time)
    assert _wrap_side(p, tau, src.period(), eps) == wrap
    want = _interp_period_distort(p, tau, src.period(), eps)
    assert np.abs(final.samples - want).max() <= CHARACTERISTICS_ATOL * src.p0


# max |p - p_char| / p0 at sigma = 0.3 in 400 steps, measured: 1.8e-5 on 1024
# samples and 1.4e-6 on 4096, where the characteristics solution's linear
# interpolation sets most of it; the time-domain march read 3.5e-3 and 5.3e-4
@pytest.mark.parametrize("n_time, atol", [(1024, 4e-5), (4096, 4e-6)])
def test_westervelt_pulse_matches_one_shot_characteristics(n_time, atol):
    medium = Medium(rho0=1000.0, c=1500.0, beta=3.5)
    src = SourceWaveform(p0=1e6, f0=1e6, kind="gaussian_pulse")
    z_max = 0.3 * shock_formation_distance(medium, src)
    grid = PlaneWaveGrid(n_time=n_time, n_steps=400, dz=z_max / 400, z_max=z_max)
    final = simulate_westervelt_plane(medium, src, grid)
    tau = np.arange(n_time) * (src.period() / n_time)
    eps = medium.beta * z_max / (medium.rho0 * medium.c**3)
    want = _interp_period_distort(src.samples(n_time), tau, src.period(), eps)
    assert np.abs(final.samples - want).max() <= atol * src.p0
