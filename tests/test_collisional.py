"""Scattering-rate tests: Maxwell moments, amplitude built-ins, localization
saturation, momentum-transfer sum rule, channel rate tensor."""

import functools
import gc
import math
import weakref

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss, legmul, legval
from scipy.integrate import quad, solve_ivp
from scipy.special import dawsn, spherical_jn, spherical_yn

from decolab import collisional
from decolab.collisional import (
    _SPEED_CUT,
    ChannelSpec,
    GasModel,
    IsotropicAmplitude,
    constant_amplitude,
    dot_master_rhs,
    dot_rate_tensor,
    elastic_dephasing_rate,
    energy_shifts,
    hard_sphere_amplitude,
    localization_rate,
    maxwell_speed_pdf,
    momentum_gain_rate,
    saturation_rate,
    total_cross_section,
    _PARTIAL_WAVE_MAX,
    _TABLES,
    _miller_ratios,
    _moment_rows,
    _pair_rate,
    _speed_table,
    _spherical_j,
    _spherical_jy,
    _upward,
)
from decolab.errors import DimensionError, PhysicsError, QuadratureError

GAS = GasModel(n_gas=1.0, m=1.0, temperature=1.0)
F0 = 0.7 + 0.2j
SWAVE = constant_amplitude(F0)


def analytic_saturation(gas, f0):
    return 4.0 * math.pi * abs(f0) ** 2 * gas.n_gas * gas.mean_speed


_ORACLE_OPTS = {"epsabs": 1e-13, "epsrel": 1e-11, "limit": 400}


def _oracle_quad(func, lo, hi, **kwargs):
    value, abserr = quad(func, lo, hi, full_output=1, **dict(_ORACLE_OPTS, **kwargs))[:2]
    assert abserr <= 1e-6 * abs(value) + 1e-12, (value, abserr)
    return value


def quad_speed_average(gas, g, s_lo=0.0, complex_valued=False):
    """Thermal average int dv nu(v) g(v) over v >= s_lo v_th by adaptive
    quadrature in the reduced speed s = v/v_th, one speed at a time, with
    real and imaginary parts integrated separately: independent of the
    library's Gauss-Legendre speed rule and its threshold substitution."""
    pref = 4.0 / math.sqrt(math.pi)

    def integrand(s):
        return pref * s * s * math.exp(-s * s) * g(gas.thermal_speed * s)

    s_hi = math.sqrt(s_lo * s_lo + _SPEED_CUT * _SPEED_CUT)
    if complex_valued:
        return complex(_oracle_quad(lambda s: integrand(s).real, s_lo, s_hi),
                       _oracle_quad(lambda s: integrand(s).imag, s_lo, s_hi))
    return _oracle_quad(integrand, s_lo, s_hi)


def quad_localization_rate(amp, gas, x):
    """Localization rate by nested adaptive quadrature, independent of the
    Legendre-moment table. Below the phase m v_th x = 40 each speed gets
    sigma(E) minus 2 pi times a QAWO sin transform of |f|^2 in
    u = sqrt(2(1 - cos theta)); above it the sin weight sits in the speed
    variable instead and the result is subtracted from n <sigma v>."""
    beta = gas.m * gas.thermal_speed * x

    def f2(u, energy):
        return abs(amp(np.array([1.0 - 0.5 * u * u]), energy)[0]) ** 2

    if beta <= 40.0:
        def per_speed(v):
            energy = 0.5 * gas.m * v * v
            a = gas.m * v * x
            osc = _oracle_quad(lambda u: f2(u, energy), 0.0, 2.0,
                               weight="sin", wvar=a) / a
            return v * (total_cross_section(amp, energy) - 2.0 * math.pi * osc)

        return gas.n_gas * quad_speed_average(gas, per_speed)

    smooth = gas.n_gas * quad_speed_average(
        gas, lambda v: v * total_cross_section(amp, 0.5 * gas.m * v * v))

    def inner(u):
        def h(s):
            v = gas.thermal_speed * s
            return s * s * math.exp(-s * s) * f2(u, 0.5 * gas.m * v * v)

        return quad(h, 0.0, _SPEED_CUT, weight="sin", wvar=beta * u, **_ORACLE_OPTS)[0]

    outer = _oracle_quad(inner, 0.0, 2.0)
    return smooth - gas.n_gas * 8.0 * math.sqrt(math.pi) / (gas.m * x) * outer


def gl_ladder_integral(g):
    """Integral of g over cos theta in [-1, 1] on Gauss-Legendre rules of 64,
    128, ... nodes, doubled until two successive values agree within 1e-10
    relative, with at most 8192 nodes: quadrature that knows nothing of the
    partial-wave coefficients behind g. A g with trailing axes is integrated
    elementwise, and every element must settle."""
    n = 64
    nodes, weights = leggauss(n)
    value = np.tensordot(weights, g(nodes), axes=1)
    while n < 8192:
        n *= 2
        nodes, weights = leggauss(n)
        refined = np.tensordot(weights, g(nodes), axes=1)
        if np.all(np.abs(refined - value) <= 1e-10 * np.abs(refined)):
            return refined
        value = refined
    raise AssertionError(f"angular ladder did not settle: {value}")


def hard_sphere_partial_waves(radius, mass, energy):
    """Legendre coefficients (2l+1) t_l / k of the hard-sphere amplitude,
    with the phase-shift cutoff of `hard_sphere_amplitude`."""
    k = math.sqrt(2.0 * mass * energy)
    kr = k * radius
    ells = np.arange(int(kr + 8.0 * kr ** (1.0 / 3.0) + 12.0) + 1)
    tan_delta = spherical_jn(ells, kr) / spherical_yn(ells, kr)
    return (2 * ells + 1) * tan_delta / (1.0 - 1j * tan_delta) / k


class TestMaxwell:
    def test_zero_speed(self):
        assert maxwell_speed_pdf(GAS, 0.0) == 0.0

    def test_negative_speed_rejected(self):
        with pytest.raises(PhysicsError):
            maxwell_speed_pdf(GAS, -1.0)

    def test_normalization(self):
        gas = GasModel(2.0, 1.7, 0.4)
        total, _ = quad(lambda v: maxwell_speed_pdf(gas, v), 0.0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_mode_location(self):
        gas = GasModel(1.0, 1.7, 0.4)
        v_star = math.sqrt(2.0 * gas.temperature / gas.m)
        assert maxwell_speed_pdf(gas, v_star) > maxwell_speed_pdf(gas, v_star * 1.01)
        assert maxwell_speed_pdf(gas, v_star) > maxwell_speed_pdf(gas, v_star * 0.99)

    def test_mean_speed(self):
        gas = GasModel(1.0, 1.7, 0.4)
        mean, _ = quad(lambda v: v * maxwell_speed_pdf(gas, v), 0.0, np.inf)
        assert mean == pytest.approx(math.sqrt(8 * 0.4 / (math.pi * 1.7)), rel=1e-6)
        assert mean == pytest.approx(gas.mean_speed, rel=1e-6)

    def test_parameter_validation(self):
        with pytest.raises(PhysicsError):
            GasModel(0.0, 1.0, 1.0)
        with pytest.raises(PhysicsError):
            GasModel(1.0, -1.0, 1.0)
        with pytest.raises(PhysicsError):
            GasModel(1.0, 1.0, 0.0)


class TestAmplitudes:
    def test_constant_everywhere(self):
        vals = SWAVE(np.array([-1.0, 0.0, 1.0]), 3.0)
        assert np.allclose(vals, F0)

    def test_hard_sphere_low_energy_scattering_length(self):
        amp = hard_sphere_amplitude(radius=2.0, mass=1.0)
        vals = amp(np.array([-0.5, 0.3, 1.0]), 1e-12)
        assert np.allclose(vals, -2.0, atol=1e-6)

    def test_hard_sphere_low_energy_cross_section(self):
        amp = hard_sphere_amplitude(radius=1.0, mass=1.0)
        energy = (0.01) ** 2 / 2.0
        assert total_cross_section(amp, energy) == pytest.approx(
            4.0 * math.pi, rel=1e-3)

    def test_hard_sphere_optical_theorem(self):
        """Total cross section equals (4 pi / k) Im f(forward)."""
        amp = hard_sphere_amplitude(radius=1.0, mass=1.0)
        for k in (0.5, 3.0, 10.0):
            energy = k * k / 2.0
            sigma = total_cross_section(amp, energy)
            forward = amp(np.array([1.0]), energy)[0]
            assert sigma == pytest.approx(4.0 * math.pi / k * forward.imag, rel=1e-8)

    def test_hard_sphere_high_energy_shadow_limit(self):
        amp = hard_sphere_amplitude(radius=1.0, mass=1.0)
        geometric = 2.0 * math.pi
        excess_100 = total_cross_section(amp, 100.0**2 / 2) / geometric - 1.0
        excess_200 = total_cross_section(amp, 200.0**2 / 2) / geometric - 1.0
        assert 0.0 < excess_200 < excess_100 < 0.2

    def test_validation(self):
        with pytest.raises(PhysicsError):
            hard_sphere_amplitude(-1.0, 1.0)

    @pytest.mark.parametrize("radius", [1e4, 1.7e157, 1e300])
    def test_partial_wave_count_beyond_the_table_raises(self, radius):
        """k r that needs more than _PARTIAL_WAVE_MAX partial waves is a
        PhysicsError naming k r and l_max, raised before any allocation."""
        amp = hard_sphere_amplitude(radius, 1.0)
        with pytest.raises(PhysicsError, match=r"k r = .* l_max = .*partial waves"):
            amp.coefficients(np.array([0.5, 2.0]))


def bessel_arguments(l_max):
    """The arguments the rate kernels reach (kr in the amplitudes, beta s up
    to 1e6 in the bracket, the turning points sqrt(L(L+1)) of the Riccati
    bound), plus zeros of j_0 and both sides of the recurrences' switch."""
    turning = np.sqrt(np.arange(1, l_max + 2) * np.arange(2, l_max + 3.0))
    return np.concatenate([np.geomspace(1e-6, 1e6, 37), turning[::max(1, l_max // 8)],
                           [math.pi, 2 * math.pi, l_max, l_max * (1 + 1e-12) + 1e-12]])


def bessel_scale(j_ref, y_ref, ell, z):
    """|value| where l >= z, the modulus sqrt(j^2 + y^2) where l < z, where
    the functions oscillate through zeros."""
    return np.where(ell >= z, np.abs(j_ref), np.hypot(j_ref, y_ref))


def guarded_spherical_j(l_max, z):
    """_spherical_j with the zero-denominator guard checked on every
    downward order: the loop that one finiteness check replaced."""
    j = np.empty((l_max + 1, z.size))
    up = z > l_max
    zu, zd = z[up], z[~up]
    with np.errstate(divide="ignore", invalid="ignore"):
        j[:, up] = _upward(np.cos(zu) / zu, np.sin(zu) / zu, zu, l_max)
        j0 = np.where(zd > 0, np.sin(zd) / zd, 1.0)
        j1 = np.where(zd > 0, (j0 - np.cos(zd)) / zd, 0.0)
    rho = np.zeros((l_max + 1, zd.size))
    cur = rho[0]
    for l in range(int(l_max + 20 + math.sqrt(40 * (l_max + 1))) if zd.size else 0, 0, -1):
        den = 2 * l + 1 - zd * cur
        if not den.all():
            den[den == 0.0] = 1e-300
        cur = zd / den
        if l <= l_max:
            rho[l] = cur
    rho[0] = j0
    if l_max:
        rho[1] = np.where(np.abs(j1) > np.abs(j0), j1, j0 * rho[1])
        np.cumprod(rho[1:], axis=0, out=rho[1:])
    j[:, ~up] = rho
    return j


class TestSphericalBessel:
    """The in-repo recurrences against 40-digit mpmath and against scipy's
    spherical_jn/spherical_yn, the route they replaced."""

    @pytest.mark.parametrize("l_max", [1, 11, 41, 80])
    def test_against_mpmath(self, l_max):
        mpmath = pytest.importorskip("mpmath")
        z = bessel_arguments(l_max)
        j, y = _spherical_jy(l_max, z)
        with mpmath.workdps(40):
            for ell in sorted({0, 1, min(2, l_max), l_max // 2, l_max - 1, l_max}):
                for zi, x in enumerate(z):
                    xm = mpmath.mpf(float(x))
                    half = mpmath.sqrt(mpmath.pi / (2 * xm))
                    j_ref = float(half * mpmath.besselj(ell + mpmath.mpf(0.5), xm))
                    y_ref = float(half * mpmath.bessely(ell + mpmath.mpf(0.5), xm))
                    scale = abs(j_ref) if ell >= x else math.hypot(j_ref, y_ref)
                    if scale > 1e-280:
                        assert abs(j[ell, zi] - j_ref) <= 2e-14 * scale, (ell, x)
                    else:
                        assert abs(j[ell, zi]) <= 1e-270, (ell, x)
                    if math.isfinite(y_ref):
                        y_scale = abs(y_ref) if ell >= x else math.hypot(j_ref, y_ref)
                        assert abs(y[ell, zi] - y_ref) <= 2e-14 * y_scale, (ell, x)
                    else:
                        assert y[ell, zi] == -math.inf, (ell, x)

    @pytest.mark.parametrize("l_max", [0, 1, 11, 41, 80, 130])
    def test_against_scipy(self, l_max):
        z = bessel_arguments(l_max)
        ell = np.arange(l_max + 1)[:, None]
        j, y = _spherical_jy(l_max, z)
        j_ref, y_ref = spherical_jn(ell, z), spherical_yn(ell, z)
        scale = bessel_scale(j_ref, y_ref, ell, z)
        kept = scale > 1e-280
        assert np.all(np.abs(j - j_ref)[kept] <= 2e-13 * scale[kept])
        finite = np.isfinite(y_ref)
        assert np.all(y[~finite] == -np.inf)
        y_scale = np.where(ell >= z, np.abs(y_ref), scale)[finite]
        assert np.all(np.abs(y[finite] - y_ref[finite]) <= 2e-13 * y_scale)

    @pytest.mark.parametrize("l_max", [0, 1, 11, 41, 80, 130])
    def test_one_finiteness_check_matches_the_guarded_loop(self, l_max):
        z = bessel_arguments(l_max)
        assert _spherical_j(l_max, z).tobytes() == guarded_spherical_j(l_max, z).tobytes()

    def test_zero_denominator_reruns_the_guarded_loop(self):
        """At this z, next to a zero of j_4, the downward denominator at l = 5
        is exactly 0: the unguarded pass leaves an inf, and the rerun gives
        the guarded loop's bits."""
        z = np.array([8.182561452571242, 1.0])
        rho = np.zeros((11, 2))
        with np.errstate(all="ignore"):
            _miller_ratios(rho, z, int(10 + 20 + math.sqrt(40 * 11)), guard=False)
        assert not np.isfinite(rho[:, 0]).all()
        j = _spherical_j(10, z)
        assert np.isfinite(j).all()
        assert j.tobytes() == guarded_spherical_j(10, z).tobytes()

    def test_zero_argument_and_shape(self):
        j, y = _spherical_jy(3, np.zeros(2))
        assert j.shape == y.shape == (4, 2)
        np.testing.assert_array_equal(j[:, 0], [1.0, 0.0, 0.0, 0.0])
        assert np.all(y == -np.inf)
        j, y = _spherical_jy(0, np.array([]))
        assert j.shape == y.shape == (1, 0)


class TestLocalizationRate:
    def test_zero_separation_is_exactly_zero(self):
        assert localization_rate(SWAVE, GAS, 0.0) == 0.0

    def test_negative_separation_rejected(self):
        with pytest.raises(PhysicsError):
            localization_rate(SWAVE, GAS, -0.5)

    def test_saturation_rate_closed_form(self):
        assert saturation_rate(SWAVE, GAS) == pytest.approx(
            analytic_saturation(GAS, F0), rel=1e-8)

    def test_saturates_at_total_collision_rate(self):
        x_far = 100.0 / (GAS.m * GAS.mean_speed)
        f_inf = analytic_saturation(GAS, F0)
        assert localization_rate(SWAVE, GAS, x_far) == pytest.approx(f_inf, rel=0.02)

    def test_quadratic_small_separation(self):
        """Fit coefficient, finite difference, and the closed-form thermal
        moment all agree on the small-x curvature."""
        scale = 1.0 / (GAS.m * GAS.mean_speed)
        xs = np.linspace(0.2, 1.0, 5) * 0.01 * scale
        values = np.array([localization_rate(SWAVE, GAS, x) for x in xs])
        c_fit = np.polyfit(xs**2, values, 1)[0]
        h = 1e-3 * scale
        c_fd = localization_rate(SWAVE, GAS, h) / h**2
        assert c_fit == pytest.approx(c_fd, rel=1e-2)
        v3 = 4.0 / math.sqrt(math.pi) * GAS.thermal_speed**3
        c_exact = (4.0 * math.pi / 3.0) * GAS.n_gas * GAS.m**2 * abs(F0) ** 2 * v3
        assert c_fd == pytest.approx(c_exact, rel=1e-3)

    @pytest.mark.parametrize("m_v_bar_x", [1e-5, 1e-4])
    def test_small_separation_series(self, m_v_bar_x):
        """F(x) = c x^2 [1 - (2/5)(m v_th x)^2 + O(x^4)] for a constant
        amplitude: the quadratic term carries no cancellation error."""
        x = m_v_bar_x / (GAS.m * GAS.mean_speed)
        v3 = 4.0 / math.sqrt(math.pi) * GAS.thermal_speed**3
        c_exact = (4.0 * math.pi / 3.0) * GAS.n_gas * GAS.m**2 * abs(F0) ** 2 * v3
        beta = GAS.m * GAS.thermal_speed * x
        ratio = localization_rate(SWAVE, GAS, x) / (c_exact * x * x)
        assert abs(ratio - (1.0 - 0.4 * beta * beta)) <= 1e-12

    def test_beyond_the_oscillation_bound_returns_saturation(self):
        """At m v_th x = 1e9 the oscillating term is provably below _GL_RTOL
        of the saturation rate, which comes back without a beta-sized rule."""
        x = 1e9 / (GAS.m * GAS.thermal_speed)
        for amp in (SWAVE, hard_sphere_amplitude(0.5, GAS.m)):
            assert localization_rate(amp, GAS, x) == pytest.approx(
                saturation_rate(amp, GAS), rel=1e-8)

    def test_constant_amplitude_closed_form(self):
        """F(x) = F_sat (1 - D(beta)/beta), D Dawson's integral, from one
        sub-panel per panel (beta = 1e-3) to about 19000 (beta = 3e4), and
        past the switch to the saturation rate (beta = 3e5). At small beta
        the closed form itself cancels to about 1e-10."""
        sat = saturation_rate(SWAVE, GAS)
        for beta in np.append(np.geomspace(1e-3, 3e4, 15), 3e5):
            x = beta / (GAS.m * GAS.thermal_speed)
            want = sat * (1.0 - dawsn(beta) / beta)
            assert localization_rate(SWAVE, GAS, x) == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_bounded_and_monotone_over_six_decades(self):
        f_inf = analytic_saturation(GAS, F0)
        xs = np.logspace(-2, 4, 13) / (GAS.m * GAS.mean_speed)
        values = [localization_rate(SWAVE, GAS, x) for x in xs]
        assert all(v >= 0.0 for v in values)
        assert all(v <= f_inf * (1.0 + 1e-3) for v in values)
        assert all(b >= a * (1.0 - 1e-9) for a, b in zip(values, values[1:]))


class TestSpeedTables:
    """One moment table per amplitude, gas and speed rule, shared by every x
    and by the saturation rate, and dropped with its amplitude."""

    def test_one_table_per_settle_level(self, monkeypatch):
        built = []
        moment_rows = collisional._moment_rows

        def counted(amp, energies):
            built.append(energies.size)
            return moment_rows(amp, energies)

        monkeypatch.setattr(collisional, "_moment_rows", counted)
        amp = hard_sphere_amplitude(0.5, 1.0)
        for x in np.geomspace(0.01, 100.0, 25):
            localization_rate(amp, GAS, x)
        assert built == [4 * 16, 8 * 16]
        saturation_rate(amp, GAS)
        assert len(built) == 2
        assert sorted(_TABLES[amp]) == [(GAS, 4), (GAS, 8)]

    def test_entry_goes_with_its_amplitude(self):
        gc.collect()
        before = len(_TABLES)
        amp = constant_amplitude(0.3 - 0.1j)
        saturation_rate(amp, GAS)
        assert len(_TABLES) == before + 1
        alive = weakref.ref(amp)
        del amp
        gc.collect()
        assert alive() is None
        assert len(_TABLES) == before

    def test_tables_are_read_only(self):
        table = _speed_table(constant_amplitude(0.5), GAS, 4)
        for array in (table.s, table.weight, table.moments,
                      collisional._panel_to_coef()):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_unsettled_rate_raises_again(self):
        rough = IsotropicAmplitude(
            lambda e: (np.exp(1e5j * e) * (1.0 + np.cos(3e4 * e)))[:, None])
        for rate in (lambda: localization_rate(rough, GAS, 1.0),
                     lambda: saturation_rate(rough, GAS)):
            estimates = []
            for _ in range(2):
                with pytest.raises(QuadratureError) as failure:
                    rate()
                estimates.append(failure.value.estimate)
            assert estimates[0] == estimates[1]


class TestAgainstQuadratureOracle:
    @pytest.mark.parametrize("beta", [5.0, 60.0])
    def test_constant_amplitude_both_sides_of_phase_40(self, beta):
        x = beta / (GAS.m * GAS.thermal_speed)
        assert localization_rate(SWAVE, GAS, x) == pytest.approx(
            quad_localization_rate(SWAVE, GAS, x), rel=1e-9)

    @pytest.mark.parametrize("radius, temperature", [(0.1, 1.0), (0.5, 0.25)])
    def test_hard_sphere_small_phase(self, radius, temperature):
        gas = GasModel(n_gas=0.8, m=1.0, temperature=temperature)
        amp = hard_sphere_amplitude(radius, gas.m)
        x = 1.0 / (gas.m * gas.thermal_speed)
        assert localization_rate(amp, gas, x) == pytest.approx(
            quad_localization_rate(amp, gas, x), rel=1e-9)

    def test_hard_sphere_moments_are_the_partial_wave_product(self):
        """|f|^2 of a partial-wave sum is the Legendre product of its
        coefficients with their conjugates, which the projection reproduces."""
        energies = [1e-3, 0.5, 8.0, 40.0]
        table = _moment_rows(hard_sphere_amplitude(0.5, 1.0), energies)
        for row, energy in zip(table, energies):
            c = hard_sphere_partial_waves(0.5, 1.0, energy)
            exact = legmul(c, np.conj(c)).real
            width = min(row.size, exact.size)
            # roundoff against each moment's bound |a_L| <= (2L+1) a_0
            bound = (2 * np.arange(width) + 1) * exact[0]
            assert np.all(np.abs(row[:width] - exact[:width]) <= 1e-13 * bound)
            # moments past the table are below _GL_RTOL a_0
            assert np.all(np.abs(exact[width:]) <= 1e-10 * exact[0])

    def test_coefficients_over_energies_are_the_per_energy_rows(self):
        """One call over an energy array gives each energy's partial waves,
        zero-padded to the largest energy's cutoff, and the s-wave limit
        c_0 = -r below kr = 1e-8. The rows come from the in-repo Bessel
        recurrences, the reference from scipy's, so they agree at the
        recurrences' bar against scipy rather than bit for bit."""
        energies = np.array([1e-20, 1e-3, 0.5, 8.0, 40.0])
        table = hard_sphere_amplitude(0.5, 1.0).coefficients(energies)
        assert table.shape == (5, hard_sphere_partial_waves(0.5, 1.0, 40.0).size)
        np.testing.assert_array_equal(table[0], -0.5 * np.eye(1, table.shape[1])[0])
        for row, energy in zip(table[1:], energies[1:]):
            c = hard_sphere_partial_waves(0.5, 1.0, energy)
            assert np.all(np.abs(row[:c.size] - c) <= 2e-13 * np.abs(c))
            assert np.all(np.abs(row[c.size:]) <= 1e-8 * np.abs(c).sum())


HARD_A, HARD_B = hard_sphere_amplitude(0.5, 1.0), hard_sphere_amplitude(1.0, 1.0)


@functools.cache
def ladder_per_speed(v):
    """By the angular ladder at gas speed v: v 2 pi int f_x f_y^* dcos for
    (x, y) = (a, a), (b, b), (a, b), then v pi int |f_a - f_b|^2 dcos, then
    both forward amplitudes, for the hard spheres HARD_A and HARD_B."""
    energy = 0.5 * GAS.m * v * v

    def g(c):
        a, b = HARD_A(c, energy), HARD_B(c, energy)
        return np.stack([a * a.conj(), b * b.conj(), a * b.conj(),
                         0.5 * np.abs(a - b) ** 2], axis=-1)

    forward = [amp(np.array([1.0]), energy)[0] for amp in (HARD_A, HARD_B)]
    return np.concatenate([v * 2.0 * math.pi * gl_ladder_integral(g), forward])


class TestAgainstAngularLadder:
    """The exact partial-wave sums against Gauss-Legendre quadrature of the
    amplitude itself, for hard spheres (up to 31 partial waves here)."""

    @pytest.mark.parametrize("radius", [0.5, 1.0])
    def test_total_cross_section(self, radius):
        amp = hard_sphere_amplitude(radius, 1.0)
        for energy in (1e-3, 0.5, 8.0, 40.0):
            ladder = gl_ladder_integral(lambda c: np.abs(amp(c, energy)) ** 2)
            assert total_cross_section(amp, energy) == pytest.approx(
                2.0 * math.pi * ladder, rel=1e-10)

    def test_elastic_dephasing_integrand(self):
        ladder = GAS.n_gas * quad_speed_average(GAS, lambda v: ladder_per_speed(v)[3].real)
        assert elastic_dephasing_rate(HARD_A, HARD_B, GAS) == pytest.approx(
            ladder, rel=1e-10)

    def test_two_hard_sphere_channels(self):
        """Pair rates of two elastic channels scattering as hard spheres of
        different radii, and their forward-amplitude energy shifts."""
        tensor = dot_rate_tensor(two_channel_elastic(HARD_A, HARD_B), GAS)
        for i, cell in enumerate(((0, 0, 0, 0), (1, 1, 1, 1), (0, 1, 0, 1))):
            ladder = GAS.n_gas * quad_speed_average(
                GAS, lambda v: ladder_per_speed(v)[i], complex_valued=True)
            assert tensor.m[cell] == pytest.approx(ladder, rel=1e-10)
        for alpha in (0, 1):
            forward = quad_speed_average(GAS, lambda v: ladder_per_speed(v)[4 + alpha].real)
            assert tensor.eps[alpha] == pytest.approx(
                -2.0 * math.pi * GAS.n_gas / GAS.m * forward, rel=1e-10)


class TestAgainstSpeedOracle:
    """Rates on the library's speed rule against `quad_speed_average` of
    partial waves computed in the test, for hard spheres."""

    @pytest.mark.parametrize("gap", [0.7, 5.0])
    def test_inelastic_hard_sphere_pair_rates(self, gap):
        """Two upward cells above the threshold s_lo = sqrt(gap/T), one of
        them a complex cross term of two transitions, and a downward cell."""
        energies = (0.0, gap, 2.0 * gap)
        radii = {(1, 0): 0.5, (2, 1): 1.0, (0, 1): 1.0}
        tensor = dot_rate_tensor(ChannelSpec(energies, {
            pair: hard_sphere_amplitude(r, GAS.m) for pair, r in radii.items()}), GAS)
        for cell in ((1, 1, 0, 0), (1, 2, 0, 1), (0, 0, 1, 1)):
            alpha, beta, alpha0, beta0 = cell
            delta = energies[alpha] - energies[alpha0]

            def per_speed(v):
                energy = 0.5 * GAS.m * v * v
                c_a = hard_sphere_partial_waves(radii[alpha, alpha0], GAS.m, energy)
                c_b = hard_sphere_partial_waves(radii[beta, beta0], GAS.m, energy)
                width = min(c_a.size, c_b.size)
                overlap = 2.0 * np.sum(
                    c_a[:width] * c_b[:width].conj() / (2 * np.arange(width) + 1))
                v_out = math.sqrt(max(v * v - 2.0 * delta / GAS.m, 0.0))
                return v_out * 2.0 * math.pi * overlap

            s_lo = math.sqrt(max(delta, 0.0) / GAS.temperature)
            oracle = GAS.n_gas * quad_speed_average(GAS, per_speed, s_lo, complex_valued=True)
            assert tensor.m[cell] == pytest.approx(oracle, rel=1e-10)

    def test_energy_shifts_of_two_hard_spheres(self):
        shifts = energy_shifts(two_channel_elastic(HARD_A, HARD_B), GAS)
        for alpha, radius in enumerate((0.5, 1.0)):
            forward = quad_speed_average(GAS, lambda v: hard_sphere_partial_waves(
                radius, GAS.m, 0.5 * GAS.m * v * v).sum().real)
            assert shifts[alpha] == pytest.approx(
                -2.0 * math.pi * GAS.n_gas / GAS.m * forward, rel=1e-10)

    @pytest.mark.parametrize("q_over_p_th", [0.05, 1.0, 4.0, 8.0])
    def test_hard_sphere_momentum_gain(self, q_over_p_th):
        """M_in(Q) = 2 pi n / (m Q) int ds p_th^2 s mu_0 e^{-s^2} |f|^2 over
        s >= Q / (2 p_th), with cos theta = 1 - Q^2 / (2 p0^2) at p0 = p_th s:
        the thermal average of p_th^2 mu_0 (sqrt(pi)/4) |f|^2 / s."""
        p_th = math.sqrt(2.0 * GAS.m * GAS.temperature)
        q = q_over_p_th * p_th
        mu_0 = (2.0 * math.pi * GAS.m * GAS.temperature) ** -1.5

        def per_speed(v):
            p0 = GAS.m * v
            c = hard_sphere_partial_waves(0.5, GAS.m, p0 * p0 / (2.0 * GAS.m))
            f = legval(1.0 - q * q / (2.0 * p0 * p0), c)
            return p_th**2 * mu_0 * math.sqrt(math.pi) / 4.0 * abs(f) ** 2 * p_th / p0

        oracle = 2.0 * math.pi * GAS.n_gas / (GAS.m * q) \
            * quad_speed_average(GAS, per_speed, s_lo=0.5 * q_over_p_th)
        got = momentum_gain_rate(hard_sphere_amplitude(0.5, GAS.m), GAS, [q]).grid_values[0]
        assert got == pytest.approx(oracle, rel=1e-10)


class TestMomentumGain:
    def test_grid_attributes(self):
        gas = GasModel(0.8, 1.3, 0.9)
        grid = np.array([0.5, 1.0, 2.0])
        m_in = momentum_gain_rate(SWAVE, gas, grid)
        assert np.array_equal(m_in.grid, grid)
        assert m_in.grid_values.shape == (3,)
        assert m_in.grid_values[1] == m_in(1.0)

    def test_negative_transfer_rejected(self):
        with pytest.raises(PhysicsError):
            momentum_gain_rate(SWAVE, GAS, [-1.0])
        m_in = momentum_gain_rate(SWAVE, GAS, [1.0])
        with pytest.raises(PhysicsError):
            m_in(-2.0)

    def test_total_collision_rate_sum_rule(self):
        """Integrating the gain rate over all transfers gives n <sigma v>."""
        gas = GasModel(0.8, 1.3, 0.9)
        m_in = momentum_gain_rate(SWAVE, gas, [1.0])
        q_hi = 16.0 * math.sqrt(2.0 * gas.m * gas.temperature)
        total, _ = quad(lambda q: 4.0 * math.pi * q * q * m_in(q), 0.0, q_hi,
                        limit=200)
        assert total == pytest.approx(analytic_saturation(gas, F0), rel=1e-6)

    def test_thermal_tail(self):
        p_th = math.sqrt(2.0 * GAS.m * GAS.temperature)
        m_in = momentum_gain_rate(SWAVE, GAS, [1.0])
        assert m_in(40.0 * p_th) < 1e-12 * analytic_saturation(GAS, F0)

    def test_consistent_with_localization_rate(self):
        """Angular-averaged transfer integral reproduces the position-space
        rate: F(x) = int d^3Q (1 - sinc(Qx)) M_in(Q)."""
        m_in = momentum_gain_rate(SWAVE, GAS, [1.0])
        q_hi = 16.0 * math.sqrt(2.0 * GAS.m * GAS.temperature)
        for x in (0.3, 1.0, 3.0):
            sep = x / (GAS.m * GAS.mean_speed)
            val, _ = quad(
                lambda q: 4.0 * math.pi * q * q
                * (1.0 - np.sinc(q * sep / np.pi)) * m_in(q),
                0.0, q_hi, epsabs=0.0, epsrel=1e-9, limit=300)
            assert val == pytest.approx(localization_rate(SWAVE, GAS, sep),
                                        rel=1e-6)


def two_channel_elastic(f_a, f_b):
    return ChannelSpec((0.0, 0.0), {(0, 0): f_a, (1, 1): f_b})


class TestDotRateTensor:
    def test_single_channel_reduces_to_collision_rate(self):
        spec = ChannelSpec((0.0,), {(0, 0): SWAVE})
        tensor = dot_rate_tensor(spec, GAS)
        assert tensor.m[0, 0, 0, 0].real == pytest.approx(
            analytic_saturation(GAS, F0), rel=1e-8)
        assert tensor.m[0, 0, 0, 0].imag == 0.0

    def test_energy_selection_rule_exact_zeros(self):
        spec = ChannelSpec((0.0, 1.0), {(0, 0): SWAVE, (1, 1): SWAVE,
                                        (0, 1): SWAVE, (1, 0): SWAVE})
        tensor = dot_rate_tensor(spec, GAS)
        assert tensor.m[0, 1, 0, 0] == 0.0
        assert tensor.m[0, 0, 0, 1] == 0.0
        assert tensor.m[1, 0, 1, 1] == 0.0

    def test_hermiticity_under_pair_swap(self):
        spec = ChannelSpec((0.0, 0.6),
                           {(0, 0): SWAVE, (1, 1): constant_amplitude(0.4 - 0.1j),
                            (0, 1): constant_amplitude(0.2j),
                            (1, 0): constant_amplitude(0.2j)})
        m = dot_rate_tensor(spec, GAS).m
        assert np.array_equal(m, np.conj(m.transpose(1, 0, 3, 2)))

    def test_threshold_rates_against_direct_quadrature(self):
        """Upward and downward population rates match an independent
        trapezoid evaluation, including the Boltzmann threshold factor."""
        gap = 5.0 * GAS.temperature
        hop = constant_amplitude(0.3 + 0.1j)
        spec = ChannelSpec((0.0, gap), {(0, 1): hop, (1, 0): hop})
        tensor = dot_rate_tensor(spec, GAS)
        sigma = 4.0 * math.pi * abs(0.3 + 0.1j) ** 2

        def oracle(delta_e):
            v_lo = math.sqrt(max(2.0 * delta_e / GAS.m, 0.0))
            v = np.linspace(v_lo, v_lo + 10.0 * GAS.thermal_speed, 40001)
            v_out = np.sqrt(np.maximum(v**2 - 2.0 * delta_e / GAS.m, 0.0))
            dens = maxwell_speed_pdf(GAS, v)
            return GAS.n_gas * np.trapezoid(dens * v_out * sigma, v)

        up, down = tensor.m[1, 1, 0, 0].real, tensor.m[0, 0, 1, 1].real
        assert up == pytest.approx(oracle(gap), rel=1e-4)
        assert down == pytest.approx(oracle(-gap), rel=1e-4)
        assert up / down == pytest.approx(oracle(gap) / oracle(-gap), rel=1e-4)
        assert up < down

    def test_elastic_tensor_combination_is_dephasing_rate(self):
        f_a, f_b = SWAVE, constant_amplitude(-0.1 + 0.4j)
        spec = two_channel_elastic(f_a, f_b)
        tensor = dot_rate_tensor(spec, GAS)
        loss = tensor.loss_matrix()
        gamma_tensor = 0.5 * (loss[0, 0].real + loss[1, 1].real) \
            - tensor.m[0, 1, 0, 1].real
        assert gamma_tensor == pytest.approx(
            elastic_dephasing_rate(f_a, f_b, GAS), rel=1e-8)

    def test_distinguishing_amplitudes_without_population_transfer(self):
        spec = two_channel_elastic(SWAVE, constant_amplitude(-F0))
        tensor = dot_rate_tensor(spec, GAS)
        assert tensor.m[1, 1, 0, 0] == 0.0
        assert elastic_dephasing_rate(SWAVE, constant_amplitude(-F0), GAS) > 0.0


class TestElasticDephasing:
    def test_identical_amplitudes_give_exact_zero(self):
        assert elastic_dephasing_rate(SWAVE, SWAVE, GAS) == 0.0
        clone = constant_amplitude(F0)
        assert elastic_dephasing_rate(SWAVE, clone, GAS) == 0.0

    def test_opposite_amplitudes_double_the_collision_rate(self):
        rate = elastic_dephasing_rate(SWAVE, constant_amplitude(-F0), GAS)
        assert rate == pytest.approx(2.0 * analytic_saturation(GAS, F0), rel=1e-8)

    def test_global_phase_invariance(self):
        f_a, f_b = constant_amplitude(0.5), constant_amplitude(0.2 + 0.1j)
        base = elastic_dephasing_rate(f_a, f_b, GAS)
        phase = np.exp(0.7j)
        rotated = elastic_dephasing_rate(constant_amplitude(0.5 * phase),
                                         constant_amplitude((0.2 + 0.1j) * phase), GAS)
        assert rotated == pytest.approx(base, rel=1e-12)


class TestSpeedAverage:
    def test_rough_amplitude_fails_to_settle_everywhere(self):
        """c_0(E) = e^{1e5 iE} (1 + cos 3e4 E) oscillates far faster than the
        finest speed rule resolves. Every rate averaging it raises with its
        last finite estimate instead of returning it: the momentum-transfer
        density, elastic dephasing, and a complex inelastic pair rate."""
        rough = IsotropicAmplitude(
            lambda e: (np.exp(1e5j * e) * (1.0 + np.cos(3e4 * e)))[:, None])
        spec = ChannelSpec((0.0, 0.7, 1.4),
                           {(1, 0): rough, (2, 1): constant_amplitude(0.3 + 0.1j)})
        rates = (lambda: momentum_gain_rate(rough, GAS, [1.0]),
                 lambda: elastic_dephasing_rate(rough, constant_amplitude(0.2), GAS),
                 lambda: _pair_rate(spec, GAS, 1, 2, 0, 1),
                 lambda: dot_rate_tensor(spec, GAS))
        for rate in rates:
            with pytest.raises(QuadratureError) as failure:
                rate()
            assert np.isfinite(failure.value.estimate)


class TestEnergyShifts:
    def test_imaginary_forward_amplitude_gives_zero(self):
        spec = ChannelSpec((0.0,), {(0, 0): constant_amplitude(0.5j)})
        assert energy_shifts(spec, GAS)[0] == 0.0

    def test_constant_real_forward_amplitude(self):
        gas = GasModel(0.8, 1.3, 0.9)
        spec = ChannelSpec((0.0,), {(0, 0): constant_amplitude(0.6)})
        expected = -2.0 * math.pi * gas.n_gas / gas.m * 0.6
        assert energy_shifts(spec, gas)[0] == pytest.approx(expected, rel=1e-10)
        assert energy_shifts(spec, gas)[0] < 0.0

    def test_missing_diagonal_amplitude_gives_zero(self):
        spec = ChannelSpec((0.0, 1.0), {(0, 1): SWAVE, (1, 0): SWAVE})
        assert np.array_equal(energy_shifts(spec, GAS), np.zeros(2))


class TestDotMasterEquation:
    def test_trace_conserved_and_hermiticity_preserved(self, rng):
        spec = ChannelSpec((0.0, 0.6),
                           {(0, 0): SWAVE, (1, 1): constant_amplitude(0.4 - 0.1j),
                            (0, 1): constant_amplitude(0.2j),
                            (1, 0): constant_amplitude(0.2j)})
        tensor = dot_rate_tensor(spec, GAS)
        for _ in range(5):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = a @ a.conj().T
            rho = rho / np.trace(rho)
            rhs = dot_master_rhs(rho, spec, GAS, tensor=tensor)
            assert abs(np.trace(rhs)) <= 1e-10 * np.linalg.norm(rhs)
            assert np.allclose(rhs, rhs.conj().T, atol=1e-12)

    def test_elastic_diagonal_state_is_stationary(self):
        spec = two_channel_elastic(SWAVE, constant_amplitude(-F0))
        rho = np.diag([0.3, 0.7]).astype(complex)
        rhs = dot_master_rhs(rho, spec, GAS)
        assert np.allclose(np.diag(rhs), 0.0, atol=1e-14)

    def test_elastic_coherence_decay_rate(self):
        """Off-diagonal damping equals the elastic dephasing rate."""
        f_a, f_b = SWAVE, constant_amplitude(-0.1 + 0.4j)
        spec = two_channel_elastic(f_a, f_b)
        rho = 0.5 * np.ones((2, 2), dtype=complex)
        rhs = dot_master_rhs(rho, spec, GAS)
        measured = -(rhs[0, 1] / rho[0, 1]).real
        assert measured == pytest.approx(
            elastic_dephasing_rate(f_a, f_b, GAS), rel=1e-8)

    def test_downward_relaxation_matches_scalar_decay(self):
        """Far above threshold the upper population follows e^{-rate*t}."""
        gap = 50.0 * GAS.temperature
        hop = constant_amplitude(0.3)
        spec = ChannelSpec((0.0, gap), {(0, 1): hop, (1, 0): hop})
        tensor = dot_rate_tensor(spec, GAS)
        down = tensor.m[0, 0, 1, 1].real
        rho0 = np.array([[0.3, 0.1], [0.1, 0.7]], dtype=complex)

        def rhs_flat(_, y):
            return dot_master_rhs(y.reshape(2, 2), spec, GAS, tensor=tensor).ravel()

        t_end = 1.0 / down
        sol = solve_ivp(rhs_flat, (0.0, t_end), rho0.ravel(), rtol=1e-10, atol=1e-12)
        rho_t = sol.y[:, -1].reshape(2, 2)
        assert rho_t[1, 1].real == pytest.approx(0.7 * math.exp(-1.0), rel=1e-6)
        assert np.min(np.linalg.eigvalsh(rho_t)) >= -1e-7

    def test_dimension_mismatch_rejected(self):
        spec = ChannelSpec((0.0,), {(0, 0): SWAVE})
        with pytest.raises(DimensionError):
            dot_master_rhs(np.eye(2), spec, GAS)

    def test_amplitude_key_validation(self):
        with pytest.raises(DimensionError):
            ChannelSpec((0.0,), {(0, 1): SWAVE})
