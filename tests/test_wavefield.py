import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nars import wavefield
from nars.errors import ConfigurationError, DataError, DomainError, NumericalError, ValidityError
from nars.wavefield import (
    AxisymGrid,
    Medium,
    PlaneWaveGrid,
    SourceWaveform,
    TimeWaveform,
    analytic_gaussian_axis,
    fubini_harmonics,
    gaussian_profile,
    harmonic_energy,
    harmonic_spectrum,
    radial_weights,
    rayleigh_distance,
    shock_formation_distance,
    simulate_kzk_axisym,
    simulate_westervelt_plane,
    westervelt_harmonic_curve,
)

WATER = Medium(rho0=1000.0, c=1500.0, beta=3.5, delta=0.0)
SRC_1MPA = SourceWaveform(p0=1e6, f0=1e6)

# Bessel-series values computed independently via mpmath besselj at 50 digits
FUBINI_TABLE = {
    (1, 0.1): 0.998751,
    (1, 0.3): 0.988792,
    (1, 0.5): 0.969074,
    (2, 0.1): 0.049834,
    (2, 0.3): 0.145550,
    (2, 0.5): 0.229807,
    (3, 0.1): 0.003729,
    (3, 0.3): 0.032076,
    (3, 0.5): 0.081285,
    (3, 1.0): 0.206042,
}


def plane_grid(sigma_end, n_steps=200, n_time=512, src=SRC_1MPA, medium=WATER):
    z_max = sigma_end * shock_formation_distance(medium, src)
    return PlaneWaveGrid(n_time=n_time, n_steps=n_steps, dz=z_max / n_steps, z_max=z_max)


# === parameter validation ===


def test_medium_validation():
    with pytest.raises(DomainError):
        Medium(rho0=-1.0, c=1500.0, beta=3.5)
    with pytest.raises(DomainError):
        Medium(rho0=1000.0, c=0.0, beta=3.5)
    with pytest.raises(DomainError):
        Medium(rho0=1000.0, c=1500.0, beta=3.5, delta=-1e-3)
    for rho0, c in ((1000.0, 1e300), (1e300, 1500.0)):  # rho0 c^3 past the float range
        with pytest.raises(DomainError, match="rho0 c"):
            Medium(rho0=rho0, c=c, beta=3.5)


def test_source_validation():
    with pytest.raises(DomainError):
        SourceWaveform(p0=0.0, f0=1e6)
    with pytest.raises(DomainError):
        SourceWaveform(p0=1e6, f0=-1.0)


def test_plane_grid_validation():
    with pytest.raises(ConfigurationError):
        PlaneWaveGrid(n_time=100, n_steps=10, dz=0.01, z_max=0.1)  # not a power of two
    with pytest.raises(ConfigurationError):
        PlaneWaveGrid(n_time=256, n_steps=10, dz=0.01, z_max=0.2)  # inconsistent z_max


def test_axisym_grid_validation():
    with pytest.raises(ConfigurationError):
        AxisymGrid(n_r=16, dr=1e-4, n_z=10, dz=1e-3, n_harm=4)
    with pytest.raises(ConfigurationError):
        AxisymGrid(n_r=64, dr=1e-4, n_z=10, dz=1e-3, n_harm=1)


NAN, INF = float("nan"), float("inf")
NON_FINITE_INPUTS = {
    "fubini-sigma-nan": (lambda: fubini_harmonics(1, NAN), DomainError, "sigma"),
    "fubini-n-nan": (lambda: fubini_harmonics(NAN, 0.5), DomainError, "harmonic index"),
    "fubini-n-inf": (lambda: fubini_harmonics(INF, 0.5), DomainError, "harmonic index"),
    "medium-beta-nan": (lambda: Medium(rho0=1000.0, c=1500.0, beta=NAN), DomainError, "beta"),
    "medium-delta-inf": (lambda: Medium(rho0=1000.0, c=1500.0, beta=3.5, delta=INF), DomainError, "delta"),
    "source-p0-nan": (lambda: SourceWaveform(p0=NAN, f0=1e6), DomainError, "p0"),
    "source-f0-inf": (lambda: SourceWaveform(p0=1e5, f0=INF), DomainError, "f0"),
    "source-phase-nan": (lambda: SourceWaveform(p0=1e5, f0=1e6, phase=NAN), DomainError, "phase"),
    "axisym-dr-nan": (lambda: AxisymGrid(n_r=64, dr=NAN, n_z=10, dz=1e-3, n_harm=4), ConfigurationError, "dr"),
    "axisym-dz-inf": (lambda: AxisymGrid(n_r=64, dr=1e-4, n_z=10, dz=INF, n_harm=4), ConfigurationError, "dz"),
    "plane-dz-z_max-inf": (
        lambda: PlaneWaveGrid(n_time=256, n_steps=10, dz=INF, z_max=INF), ConfigurationError, "dz"
    ),
    "plane-z_max-nan": (
        lambda: PlaneWaveGrid(n_time=256, n_steps=10, dz=0.01, z_max=NAN), ConfigurationError, "z_max"
    ),
    "gaussian-profile-a-nan": (lambda: gaussian_profile(NAN), DomainError, "radius a"),
    "gaussian-axis-a-nan": (
        lambda: analytic_gaussian_axis(SRC_1MPA, NAN, WATER, 0.01), DomainError, "radius a"
    ),
    "gaussian-axis-z-nan": (lambda: analytic_gaussian_axis(SRC_1MPA, 0.004, WATER, NAN), DomainError, "z"),
    "rayleigh-a-nan": (lambda: rayleigh_distance(SRC_1MPA, NAN, WATER), DomainError, "radius a"),
    "waveform-fs-nan": (lambda: TimeWaveform(np.zeros(64), fs=NAN), DomainError, "fs"),
    "spectrum-f0-nan": (
        lambda: harmonic_spectrum(TimeWaveform(np.zeros(64), fs=64e6), NAN, 3), DomainError, "f0"
    ),
}


@pytest.mark.parametrize("case", NON_FINITE_INPUTS)
def test_non_finite_inputs_are_rejected_naming_the_field(case):
    make, error, field = NON_FINITE_INPUTS[case]
    with pytest.raises(error, match=field):
        make()


# === analytic oracles ===


def test_shock_distance_water_1mhz_1mpa():
    assert shock_formation_distance(WATER, SRC_1MPA) == pytest.approx(0.15347083798147, rel=1e-10)


def test_fubini_table():
    for (n, sigma), expect in FUBINI_TABLE.items():
        assert fubini_harmonics(n, sigma) == pytest.approx(expect, abs=5e-7)


def test_fubini_domain():
    with pytest.raises(ValidityError):
        fubini_harmonics(1, 1.5)
    with pytest.raises(DomainError):
        fubini_harmonics(0, 0.5)


def test_fubini_bessel_matches_scipy_jv():
    # oracle: scipy's Bessel jv, which errs by up to 2.1e-13 relative for these
    # n against 40-digit values (Miller's recurrence by up to 1.5e-14), and
    # which flushes values below about 1e-290 to zero
    from scipy.special import jv

    sigmas = np.concatenate([np.geomspace(1e-3, 1.0, 25), [0.1, 0.3, 0.5, 0.999]])
    for n in range(1, 257):
        for sigma in sigmas:
            want = 2.0 * jv(n, n * sigma) / (n * sigma)
            got = fubini_harmonics(n, sigma)
            if abs(want) > 1e-280:
                assert abs(got - want) <= 1e-12 * abs(want), (n, sigma, got, want)
            else:
                assert abs(got) <= 1e-280, (n, sigma, got, want)


@pytest.mark.parametrize("sigma", [1e-300, 1e-150, 1e-101, 1e-99, 1e-30])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_fubini_at_tiny_sigma_is_the_leading_series_term(n, sigma):
    # B_n = (n sigma / 2)^(n-1) / n! (1 - O(sigma^2)); the recurrence must not overflow
    want = (n * sigma / 2) ** (n - 1) / math.factorial(n)
    assert fubini_harmonics(n, sigma) == pytest.approx(want, rel=1e-14)


def test_rayleigh_distance():
    # ka^2/2 with k = 2 pi f / c
    a = 0.004
    k = 2 * np.pi * 1e6 / 1500.0
    assert rayleigh_distance(SRC_1MPA, a, WATER) == pytest.approx(k * a * a / 2, rel=1e-12)


# === plane-wave march ===


def test_westervelt_matches_fubini():
    z, ratios, _ = westervelt_harmonic_curve(WATER, SRC_1MPA, plane_grid(0.3), n_max=3)
    for n in (1, 2, 3):
        assert ratios[-1][n - 1] == pytest.approx(FUBINI_TABLE[(n, 0.3)], rel=1e-2)


def test_westervelt_second_harmonic_slope():
    # d|p2|/dz -> beta * omega * p0^2 / (2 rho0 c^3) for sigma << 1
    src = SourceWaveform(p0=5e5, f0=1e6)
    grid = plane_grid(0.01, n_steps=20, src=src)
    z, ratios, _ = westervelt_harmonic_curve(WATER, src, grid, n_max=2)
    slope = np.polyfit(z, ratios[:, 1] * src.p0, 1)[0]
    expect = WATER.beta * 2 * np.pi * src.f0 * src.p0**2 / (2 * WATER.rho0 * WATER.c**3)
    assert slope == pytest.approx(expect, rel=1e-3)


def test_westervelt_refuses_shock_regime():
    with pytest.raises(ValidityError):
        simulate_westervelt_plane(WATER, SRC_1MPA, plane_grid(1.05))


def test_westervelt_linear_regime_no_harmonics():
    linear = Medium(rho0=1000.0, c=1500.0, beta=0.0)
    grid = PlaneWaveGrid(n_time=256, n_steps=20, dz=0.01, z_max=0.2)
    z, ratios, _ = westervelt_harmonic_curve(linear, SRC_1MPA, grid, n_max=3)
    assert np.all(ratios[:, 1:] <= 1e-12)
    assert ratios[-1][0] == pytest.approx(1.0, rel=1e-12)


def test_westervelt_phase_flip_antisymmetry():
    # beta = 0: the march is linear, so a pi phase shift negates the output
    linear = Medium(rho0=1000.0, c=1500.0, beta=0.0, delta=4e-6)
    grid = PlaneWaveGrid(n_time=256, n_steps=10, dz=0.01, z_max=0.1)
    w_pos = simulate_westervelt_plane(linear, SourceWaveform(p0=1e5, f0=1e6), grid)
    w_neg = simulate_westervelt_plane(
        linear, SourceWaveform(p0=1e5, f0=1e6, phase=np.pi), grid
    )
    assert np.max(np.abs(w_pos.samples + w_neg.samples)) < 1e-9 * 1e5


def test_westervelt_time_reversal_oddness():
    # zero-phase sine stays a pure sine series under lossless steepening,
    # hence odd under the time reversal k -> (N - k) mod N
    w = simulate_westervelt_plane(WATER, SRC_1MPA, plane_grid(0.5))
    s = w.samples
    rev = -s[(-np.arange(len(s))) % len(s)]
    assert np.max(np.abs(s - rev)) < 1e-9 * SRC_1MPA.p0


def test_westervelt_resolution_convergence():
    # finer time sampling reduces the Fubini mismatch
    errs = []
    for n_time in (128, 512):
        z, ratios, _ = westervelt_harmonic_curve(
            WATER, SRC_1MPA, plane_grid(0.5, n_time=n_time), n_max=2
        )
        errs.append(abs(ratios[-1][1] - FUBINI_TABLE[(2, 0.5)]))
    assert errs[1] < errs[0]


def test_westervelt_deterministic():
    a = simulate_westervelt_plane(WATER, SRC_1MPA, plane_grid(0.4)).samples
    b = simulate_westervelt_plane(WATER, SRC_1MPA, plane_grid(0.4)).samples
    assert np.array_equal(a, b)


def test_westervelt_needs_time_resolution():
    grid = PlaneWaveGrid(n_time=64, n_steps=10, dz=0.001, z_max=0.01)
    with pytest.raises(ConfigurationError):
        simulate_westervelt_plane(WATER, SRC_1MPA, grid, n_harm_out=8)


def test_thermoviscous_decay_plane_wave():
    delta = 4.5e-3
    visc = Medium(rho0=1000.0, c=1500.0, beta=0.0, delta=delta)
    src = SourceWaveform(p0=1e5, f0=1e6)
    grid = PlaneWaveGrid(n_time=256, n_steps=40, dz=2.5e-3, z_max=0.1)
    w = simulate_westervelt_plane(visc, src, grid)
    alpha = delta * (2 * np.pi * src.f0) ** 2 / (2 * visc.c**3)
    got = harmonic_spectrum(w, src.f0, 1)[0]
    assert got == pytest.approx(src.p0 * np.exp(-alpha * grid.z_max), rel=1e-9)


# === spectrum helper ===


def test_harmonic_spectrum_two_tone():
    fs, f0, n = 16000.0, 100.0, 1600
    t = np.arange(n) / fs
    x = 0.7 * np.sin(2 * np.pi * f0 * t) + 0.2 * np.cos(2 * np.pi * 3 * f0 * t)
    amps = harmonic_spectrum(TimeWaveform(x, fs=fs), f0, 4)
    assert amps == pytest.approx([0.7, 0.0, 0.2, 0.0], abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    amps=st.lists(st.floats(0.01, 2.0), min_size=1, max_size=4),
    phases=st.lists(st.floats(0, 2 * np.pi), min_size=4, max_size=4),
)
def test_harmonic_spectrum_recovers_synthetic_series(amps, phases):
    fs, f0, n = 32000.0, 125.0, 2560  # ten exact periods
    t = np.arange(n) / fs
    x = sum(a * np.sin(2 * np.pi * (i + 1) * f0 * t + p) for i, (a, p) in enumerate(zip(amps, phases)))
    got = harmonic_spectrum(TimeWaveform(np.asarray(x), fs=fs), f0, len(amps))
    assert got == pytest.approx(amps, abs=1e-9)


# === axisymmetric march ===


def kzk_case(beta=0.0, delta=0.0, p0=1e5, a=0.004, n_z=48, dz=None, n_r=128, n_harm=2):
    med = Medium(rho0=1000.0, c=1500.0, beta=beta, delta=delta)
    src = SourceWaveform(p0=p0, f0=1e6)
    zr = rayleigh_distance(src, a, med)
    grid = AxisymGrid(n_r=n_r, dr=2e-4, n_z=n_z, dz=dz or zr / n_z, n_harm=n_harm)
    return med, src, a, grid


def test_kzk_linear_axis_matches_gaussian_solution():
    med, src, a, grid = kzk_case(n_z=96)
    field = simulate_kzk_axisym(med, src, gaussian_profile(a), grid)
    expect = analytic_gaussian_axis(src, a, med, field.z)
    assert abs(field.amps[0, 0]) == pytest.approx(expect, rel=5e-3)


def test_kzk_diffraction_conserves_energy():
    # short lossless march: the CN radial step is self-adjoint in the cell
    # weights, so the field energy must hold to rounding
    med, src, a, grid = kzk_case(n_z=10, dz=1e-4)
    energies = []
    simulate_kzk_axisym(
        med, src, gaussian_profile(a), grid,
        callback=lambda z, amps: energies.append(harmonic_energy(amps, grid.dr).sum()),
    )
    e = np.asarray(energies)
    assert np.max(np.abs(e - e[0])) < 1e-10 * e[0]


def test_kzk_thermoviscous_decay_ratio():
    delta = 4.5e-3
    med, src, a, grid = kzk_case(n_z=60, dz=1.9e-3)
    lossless = simulate_kzk_axisym(med, src, gaussian_profile(a), grid)
    med_v, _, _, _ = kzk_case(delta=delta)
    visc = simulate_kzk_axisym(med_v, src, gaussian_profile(a), grid)
    alpha = delta * (2 * np.pi * src.f0) ** 2 / (2 * med.c**3)
    ratio = abs(visc.amps[0, 0]) / abs(lossless.amps[0, 0])
    assert ratio == pytest.approx(np.exp(-alpha * grid.z_max), rel=1e-9)


def test_kzk_second_harmonic_slope():
    med, src, a, grid = kzk_case(beta=3.5, a=0.02, n_r=128, n_z=50, dz=2e-4, n_harm=4)
    grid = AxisymGrid(n_r=128, dr=7e-4, n_z=50, dz=2e-4, n_harm=4)
    zs, h2 = [], []
    simulate_kzk_axisym(
        med, src, gaussian_profile(0.02), grid,
        callback=lambda z, amps: (zs.append(z), h2.append(abs(amps[1, 0]))),
    )
    slope = np.polyfit(zs, h2, 1)[0]
    expect = med.beta * 2 * np.pi * src.f0 * src.p0**2 / (2 * med.rho0 * med.c**3)
    assert slope == pytest.approx(expect, rel=5e-3)


@pytest.mark.parametrize("delta", [0.0, 4.5e-4])
def test_kzk_march_order_against_a_fine_reference(delta):
    # the first-order split: the on-axis error of H1 falls 4x per halving of
    # dz, of H2 and H3 2x. A higher-order march may raise these bounds, never
    # lower them.
    med, src, a, _ = kzk_case(beta=3.5, delta=delta)
    z_r = rayleigh_distance(src, a, med)

    def axis(n_z):
        grid = AxisymGrid(n_r=96, dr=2e-4, n_z=n_z, dz=z_r / n_z, n_harm=8)
        return simulate_kzk_axisym(med, src, gaussian_profile(a), grid).amps[:3, 0]

    ref = axis(1024)
    err = [np.abs(axis(n_z) - ref) for n_z in (16, 32, 64)]
    for coarse, fine in zip(err, err[1:]):
        assert np.all(coarse / fine >= [3.5, 1.6, 1.6])


def test_kzk_rejects_narrow_domain():
    med, src, a, grid = kzk_case()
    with pytest.raises(ConfigurationError):
        simulate_kzk_axisym(med, src, gaussian_profile(0.02), grid)  # 4x rule


def test_kzk_rejects_step_longer_than_an_eighth_of_rayleigh_distance():
    med, src, a, _ = kzk_case()
    z_r = rayleigh_distance(src, a, med)
    ok = AxisymGrid(n_r=128, dr=2e-4, n_z=2, dz=z_r / 8, n_harm=2)
    simulate_kzk_axisym(med, src, gaussian_profile(a), ok)
    coarse = AxisymGrid(n_r=128, dr=2e-4, n_z=2, dz=z_r / 7.9, n_harm=2)
    with pytest.raises(ValidityError, match="z_R/8"):
        simulate_kzk_axisym(med, src, gaussian_profile(a), coarse)


def test_kzk_rejects_source_narrower_than_four_radial_cells():
    med, src, a, _ = kzk_case()
    ok = AxisymGrid(n_r=64, dr=a / 5, n_z=2, dz=1e-3, n_harm=2)
    simulate_kzk_axisym(med, src, gaussian_profile(a), ok)
    coarse = AxisymGrid(n_r=64, dr=a / 3.9, n_z=2, dz=1e-3, n_harm=2)
    with pytest.raises(ValidityError, match="radial cells"):
        simulate_kzk_axisym(med, src, gaussian_profile(a), coarse)


def test_kzk_rejects_bad_profile():
    med, src, a, grid = kzk_case()

    def bad(r):
        out = np.zeros_like(r)
        out[0] = np.nan
        return out

    with pytest.raises(DataError):
        simulate_kzk_axisym(med, src, bad, grid)


def test_kzk_requires_sine_source():
    med, src, a, grid = kzk_case()
    pulse = SourceWaveform(p0=1e5, f0=1e6, kind="gaussian_pulse")
    with pytest.raises(DomainError):
        simulate_kzk_axisym(med, pulse, gaussian_profile(a), grid)


def test_kzk_deterministic():
    med, src, a, grid = kzk_case(beta=3.5, n_z=20)
    f1 = simulate_kzk_axisym(med, src, gaussian_profile(a), grid)
    f2 = simulate_kzk_axisym(med, src, gaussian_profile(a), grid)
    assert np.array_equal(f1.amps, f2.amps)


def test_kzk_factors_once_and_solves_once_per_diffraction_substep(monkeypatch):
    calls = {"factor": 0, "solve": 0}
    factor, solve = wavefield._factor_tridiagonal, wavefield.solve_banded

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(wavefield, "_factor_tridiagonal", counted("factor", factor))
    monkeypatch.setattr(wavefield, "solve_banded", counted("solve", solve))
    med, src, a, grid = kzk_case(beta=3.5, n_z=12, n_r=96, n_harm=4)
    simulate_kzk_axisym(med, src, gaussian_profile(a), grid)
    assert calls == {"factor": 1, "solve": grid.n_z}


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_factor_tridiagonal_rejects_a_singular_matrix(dtype):
    # zero diagonal and zero subdiagonal: the first column is zero
    lower = np.zeros(5, dtype=dtype)
    upper = np.ones(5, dtype=dtype)
    with pytest.raises(NumericalError, match="singular") as err:
        wavefield._factor_tridiagonal(lower, np.zeros(6, dtype=dtype), upper)
    assert err.value.exit_code == 3


def test_factor_tridiagonal_rejects_a_nonsingular_matrix_that_is_not_dominant():
    # lower triangular with a unit diagonal, so det = 1, but row 1 has |2| > |1|
    lower, diag, upper = np.array([2.0, 0.0]), np.ones(3), np.zeros(2)
    with pytest.raises(NumericalError, match="not diagonally dominant in row 1") as err:
        wavefield._factor_tridiagonal(lower, diag, upper)
    assert err.value.exit_code == 3


@pytest.mark.parametrize(
    "diag, lower",
    [
        ([1.0, 0.0, 1.0], [0.0, 0.0]),  # a zero row is weakly dominant, and singular
        ([1.0, np.inf, 1.0], [0.0, 0.0]),  # an infinite pivot
        ([1.0, 1.0, 1e-320], [0.0, 0.0]),  # its reciprocal overflows
        ([1.0, 1.0, 1.0], [np.nan, 0.0]),  # fails the dominance check
    ],
)
def test_factor_tridiagonal_rejects_a_zero_or_non_finite_pivot(diag, lower):
    with np.errstate(all="raise"):  # and the check itself warns of nothing
        with pytest.raises(NumericalError, match="singular") as err:
            wavefield._factor_tridiagonal(np.array(lower), np.array(diag), np.zeros(2))
    assert err.value.exit_code == 3


def _dominant_bands(n, dtype, seed):
    """Random (lower, diag, upper) with |diag| >= 1.1 (|lower| + |upper|) in every row."""
    rng = np.random.default_rng(seed)
    complex_ = dtype == np.complex128

    def draw(m):
        v = rng.standard_normal(m)
        return v + 1j * rng.standard_normal(m) if complex_ else v

    lower, upper = draw(n - 1), draw(n - 1)
    off = np.zeros(n)
    off[1:] += np.abs(lower)
    off[:-1] += np.abs(upper)
    sign = np.exp(1j * rng.uniform(-np.pi, np.pi, n)) if complex_ else rng.choice([-1.0, 1.0], n)
    diag = (off * (1.1 + rng.random(n)) + (off == 0)) * sign
    return lower, diag, upper, draw(n)


def _kzk_bands(monkeypatch, medium, src, grid):
    """The bands that a KZK march with these parameters hands ``_factor_tridiagonal``."""
    seen = []
    factor = wavefield._factor_tridiagonal
    with monkeypatch.context() as patch:
        patch.setattr(wavefield, "_factor_tridiagonal", lambda *bands: seen.append(bands) or factor(*bands))
        wavefield._kzk_substeps(medium, src, grid)
    (bands,) = seen
    rng = np.random.default_rng(5)
    n = bands[1].shape[0]
    return (*bands, rng.standard_normal(n) + 1j * rng.standard_normal(n))


# max |x - x_scipy| / max |x_scipy|, measured: at most 1.3e-15 over 200 seeds
# of the random matrices, 4.3e-16 on the beam benchmark's KZK matrix
SOLVE_RTOL = 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 50, 401])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_cyclic_reduction_matches_scipy_solve_banded_on_dominant_matrices(n, dtype):
    _assert_solve_matches_scipy(*_dominant_bands(n, dtype, seed=n))


@pytest.mark.parametrize("grid_name", ["beam", "kzk.ini"])
def test_cyclic_reduction_matches_scipy_solve_banded_on_kzk_matrices(monkeypatch, grid_name):
    if grid_name == "beam":  # the beam benchmark's 32-harmonic march
        medium = Medium(rho0=1000.0, c=1500.0, beta=3.5, delta=4.5e-4)
        src = SourceWaveform(p0=1e5, f0=1e6)
        dz = rayleigh_distance(src, 0.004, medium) / 256
        grid = AxisymGrid(n_r=400, dr=1e-4, n_z=256, dz=dz, n_harm=32)
    else:  # configs/kzk.ini
        medium = Medium(rho0=1000.0, c=1500.0, beta=0.0, delta=0.0)
        src = SourceWaveform(p0=1e5, f0=1e6)
        grid = AxisymGrid(n_r=96, dr=0.0002, n_z=40, dz=0.002, n_harm=4)
    _assert_solve_matches_scipy(*_kzk_bands(monkeypatch, medium, src, grid))


def _assert_solve_matches_scipy(lower, diag, upper, b):
    from scipy.linalg import solve_banded

    n = diag.shape[0]
    ab = np.zeros((3, n), dtype=diag.dtype)
    ab[0, 1:], ab[1], ab[2, :-1] = upper, diag, lower
    want = solve_banded((1, 1), ab, b)
    got = wavefield.solve_banded(wavefield._factor_tridiagonal(lower, diag, upper), b.copy())
    assert np.abs(got - want).max() <= SOLVE_RTOL * np.abs(want).max()


def test_kzk_march_and_fubini_load_no_scipy(monkeypatch):
    # the suite has loaded scipy as an oracle: every scipy entry of
    # sys.modules is set to None, so any import of scipy raises ImportError
    for name in [m for m in sys.modules if m.split(".")[0] == "scipy"] + ["scipy"]:
        monkeypatch.setitem(sys.modules, name, None)
    med, src, a, grid = kzk_case(beta=3.5, delta=4.5e-4, n_z=8, n_harm=4)
    simulate_kzk_axisym(med, src, gaussian_profile(a), grid)
    assert fubini_harmonics(3, 0.5) == pytest.approx(FUBINI_TABLE[(3, 0.5)], abs=5e-7)
    assert [m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod is not None] == []


def test_radial_weights_integrate_area():
    # cell areas 2 pi w_i sum to the disc area pi R^2 with R at the last cell edge
    n_r, dr = 64, 1e-3
    w = radial_weights(n_r, dr)
    r_edge = (n_r - 0.5) * dr
    assert 2 * np.pi * np.sum(w) == pytest.approx(np.pi * r_edge**2, rel=1e-12)
