import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import polygamma

from decolab.dephasing import (
    BathModes,
    SpectralDensity,
    F_superohmic_limit,
    F_th,
    F_vac,
    alpha_k,
    chi_thermal_discrete,
    chi_vacuum_discrete,
    classify_regime,
    coherence_weight,
    dfs_states,
    discretize_spectral_density,
    matsubara_time,
    n_qubit_coherence,
    trigamma,
)
from decolab.errors import PhysicsError


def coth(x):
    # independent route: (e^{2x} + 1)/(e^{2x} - 1)
    e = math.exp(2.0 * x)
    return (e + 1.0) / (e - 1.0)


# Oracle 1: the adaptive quadrature that evaluated F_vac and F_th before the
# closed forms. Below ~4 pi radians of phase across the window the plain
# adaptive rule takes the cosine; above it the oscillatory (QAWO) rule does.
# Trusted for T/omega_c >= 0.01 and T t <= 100: at lower temperature it
# never samples the thin thermal weight below w ~ 60 T (returns 0), and at
# long times it runs low without flagging it (at T t = 100, T/omega_c = 1e-4:
# 4% for d = 1, 93% for d = 3).
QUAD_EPSREL = 1e-11


def quad_decay(j, temperature, t):
    """int J(w) (1 - cos wt) weight(w)/w^2 dw by adaptive quadrature, with
    weight 1 (F_vac) at temperature 0, else coth(w/2T) - 1 (F_th)."""
    if temperature == 0.0:
        def g(w):
            return float(j(w))
        zero_limit = 0.0
        omega_hi = 50.0 * j.omega_c
    else:
        def g(w):
            x = 0.5 * w / temperature
            return float(j(w)) * (2.0 / math.expm1(2.0 * x) if x < 30.0 else 0.0)
        # w -> 0 limit of the integrand: a T t^2 for d = 1, else 0
        zero_limit = j.a * temperature * t * t if j.d == 1 else 0.0
        omega_hi = 50.0 * max(j.omega_c, temperature)

    def direct(w):
        if w < 1e-100:
            return zero_limit
        s = float(np.sinc(0.5 * w * t / np.pi))
        return g(w) * 0.5 * t * t * s * s

    def h(w):
        return g(w) / (w * w)

    split = 4.0 * math.pi / t
    if split >= omega_hi:
        total, err = quad(direct, 0.0, omega_hi, epsabs=0.0, epsrel=QUAD_EPSREL,
                          limit=400)
    else:
        val_a, err_a = quad(direct, 0.0, split, epsabs=0.0, epsrel=QUAD_EPSREL,
                            limit=400)
        val_b, err_b = quad(h, split, omega_hi, epsabs=0.0, epsrel=QUAD_EPSREL,
                            limit=400)
        val_c, err_c = quad(h, split, omega_hi, weight="cos", wvar=t,
                            epsabs=1e-14, epsrel=QUAD_EPSREL, limit=800)
        total, err = val_a + val_b - val_c, err_a + err_b + err_c
    assert err <= 1e-6 * abs(total) + 1e-13, f"quadrature error {err:.2e} at t = {t}"
    return total


# Oracle 2: coth(w/2T) = 1 + 2 sum_n exp(-n w/T) splits both integrals into
# Laplace transforms over b_n = 1/omega_c + n/T (n = 0 is the vacuum), each
# term exact and positive, so the sum loses no digits to cancellation.
MATSUBARA_TERMS = 2_000_000


def matsubara_decay(j, temperature, ts):
    """Lists (F_vac, F_th) over the times ts from the Matsubara series, the
    terms beyond n = MATSUBARA_TERMS as an integral to leading order in t/b."""
    d = j.d
    pref = j.a if d == 1 else 2.0 * j.a / j.omega_c ** (d - 1)
    b = 1.0 / j.omega_c + np.arange(1, MATSUBARA_TERMS + 1) / temperature
    edge = 1.0 / j.omega_c + (MATSUBARA_TERMS + 0.5) / temperature
    vac, th = [], []
    for t in ts:
        s = t * t

        def term(b):
            bb = b * b
            if d == 1:
                return np.log1p(s / bb)
            if d == 2:
                return s / (b * (bb + s))
            return s * (3.0 * bb + s) / (bb * (bb + s) ** 2)

        # T int_edge^inf term db with term ~ s/b^2, s/b^3, 3s/b^4
        tail = temperature * s * (1.0 / edge, 0.5 / edge ** 2, 1.0 / edge ** 3)[d - 1]
        vac.append(0.5 * pref * float(term(np.float64(1.0 / j.omega_c))))
        th.append(pref * (float(np.sum(term(b))) + tail))
    return vac, th


def relative_errors(got, want):
    return [abs(g / w - 1.0) for g, w in zip(got, want)]


class TestDiscreteModes:
    def test_alpha_k_zero_time(self):
        assert alpha_k(0.3, 2.0, 0.0) == 0.0

    def test_alpha_k_full_period(self):
        # alpha returns to zero after one mode period
        assert abs(alpha_k(0.5, 3.0, 2.0 * np.pi / 3.0)) < 1e-14

    def test_alpha_k_half_period(self):
        # g=1, w=1, t=pi: 2(1 - e^{i pi}) = 4
        assert alpha_k(1.0, 1.0, np.pi) == pytest.approx(4.0 + 0.0j, abs=1e-14)

    def test_alpha_k_rejects_bad_input(self):
        with pytest.raises(PhysicsError):
            alpha_k(1.0, -1.0, 0.5)
        with pytest.raises(PhysicsError):
            alpha_k(1.0, 1.0, -0.5)

    def test_chi_vacuum_single_mode_frozen(self):
        # 4 g^2 (1 - cos pi)/w^2 = 4 * 0.01 * 2 = 0.08
        bath = BathModes(((0.1, 1.0),))
        assert chi_vacuum_discrete(bath, np.pi) == pytest.approx(
            math.exp(-0.08), rel=1e-14)

    def test_chi_vacuum_matches_displacement_sum(self):
        # exponent equals sum_k |alpha_k|^2 / 2
        bath = BathModes(((0.2, 1.3), (0.05, 0.7), (0.11, 2.9)))
        t = 1.7
        total = sum(abs(alpha_k(g, w, t)) ** 2 for g, w in bath.modes) / 2.0
        assert chi_vacuum_discrete(bath, t) == pytest.approx(math.exp(-total), rel=1e-13)

    def test_chi_thermal_single_mode_frozen(self):
        bath = BathModes(((0.1, 1.0),))
        expected = math.exp(-0.08 * coth(0.5 / 0.5))
        assert chi_thermal_discrete(bath, 0.5, np.pi) == pytest.approx(expected, rel=1e-13)

    def test_chi_thermal_at_zero_temperature_is_vacuum(self):
        bath = BathModes(((0.2, 1.0), (0.1, 2.0)))
        assert chi_thermal_discrete(bath, 0.0, 0.9) == chi_vacuum_discrete(bath, 0.9)

    def test_commensurate_modes_recur(self):
        # integer frequencies: full revival at t = 2 pi
        bath = BathModes(((0.3, 1.0), (0.2, 2.0), (0.1, 3.0)))
        assert abs(chi_vacuum_discrete(bath, 2.0 * np.pi) - 1.0) < 1e-10
        assert abs(chi_thermal_discrete(bath, 2.0, 2.0 * np.pi) - 1.0) < 1e-10

    def test_negative_frequency_rejected(self):
        with pytest.raises(PhysicsError):
            BathModes(((0.1, -1.0),))

    @settings(max_examples=40, deadline=None)
    @given(
        g=st.floats(0.0, 2.0),
        w=st.floats(0.1, 10.0),
        temp=st.floats(0.0, 5.0),
        t=st.floats(0.0, 20.0),
    )
    def test_chi_bounded_and_thermal_faster(self, g, w, temp, t):
        bath = BathModes(((g, w),))
        chi_v = abs(chi_vacuum_discrete(bath, t))
        chi_t = abs(chi_thermal_discrete(bath, temp, t))
        assert chi_v <= 1.0 + 1e-12
        # thermal occupation only ever suppresses coherence further
        assert chi_t <= chi_v + 1e-12


class TestSpectralDensity:
    def test_ohmic_peak_value(self):
        j = SpectralDensity(a=2.0, omega_c=3.0)
        # J(omega_c) = a omega_c e^{-1}
        assert j(3.0) == pytest.approx(6.0 / math.e, rel=1e-14)

    def test_power_law_exponent(self):
        for d in (1, 2, 3):
            j = SpectralDensity(a=1.0, omega_c=1.0, d=d)
            ratio = j(2e-4) / j(1e-4)
            assert ratio == pytest.approx(2.0 ** d, rel=1e-3)

    def test_validation(self):
        with pytest.raises(PhysicsError):
            SpectralDensity(a=-1.0, omega_c=1.0)
        with pytest.raises(PhysicsError):
            SpectralDensity(a=1.0, omega_c=0.0)
        with pytest.raises(PhysicsError):
            SpectralDensity(a=1.0, omega_c=1.0, d=4)


class TestVacuumDecay:
    def test_ohmic_closed_form(self):
        # F_vac = (a/2) log(1 + omega_c^2 t^2) exactly for d = 1
        j = SpectralDensity(a=1.3, omega_c=2.0)
        for t in np.logspace(-2, 2, 12):
            expected = 0.5 * j.a * math.log1p((j.omega_c * t) ** 2)
            assert F_vac(j, t) == pytest.approx(expected, rel=1e-8)

    def test_d2_closed_form(self):
        # (a/omega_c) int e^{-w/wc}(1-cos wt) dw = a u^2/(1+u^2), u = wc t
        j = SpectralDensity(a=0.8, omega_c=1.5, d=2)
        for t in (0.05, 0.4, 2.0, 30.0):
            u = j.omega_c * t
            assert F_vac(j, t) == pytest.approx(j.a * u * u / (1 + u * u), rel=1e-9)

    def test_d3_closed_form(self):
        # a [1 - (1 - u^2)/(1 + u^2)^2], u = wc t
        j = SpectralDensity(a=2.0, omega_c=0.7, d=3)
        for t in (0.1, 1.0, 12.0, 200.0):
            u = j.omega_c * t
            expected = j.a * (1.0 - (1.0 - u * u) / (1.0 + u * u) ** 2)
            assert F_vac(j, t) == pytest.approx(expected, rel=1e-9)

    def test_zero_time(self):
        j = SpectralDensity(a=1.0, omega_c=1.0)
        assert F_vac(j, 0.0) == 0.0

    def test_short_time_is_quadratic(self):
        # F ~ (a/2)(wc t)^2 below the cutoff time, all d share the wc^2
        # coefficient only for d = 1; check d = 1
        j = SpectralDensity(a=0.5, omega_c=4.0)
        t = 1e-4
        assert F_vac(j, t) == pytest.approx(0.5 * j.a * (j.omega_c * t) ** 2, rel=1e-6)

    def test_negative_time_rejected(self):
        with pytest.raises(PhysicsError):
            F_vac(SpectralDensity(a=1.0, omega_c=1.0), -1.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_finite_where_the_square_overflows(self, d):
        """(omega_c t)^2 overflows past t ~ 1e153 here, and its square for d = 3
        past 1e76: the decay function stays finite and reaches its long-time
        form a log(omega_c t) (d = 1) or a (d = 2, 3)."""
        j = SpectralDensity(a=1.3, omega_c=10.0, d=d)
        for t in (1e76, 1e80, 1e153, 1e160, 1e300, np.float64(1e160)):
            u = j.omega_c * float(t)
            want = j.a * math.log(u) if d == 1 else j.a
            assert F_vac(j, t) == pytest.approx(want, rel=1e-15)

    def test_finite_where_an_intermediate_overflows(self):
        """omega_c t = 1e600 (d = 1) and a (3x + x^2) = 4e308 (d = 3, x = 1)
        leave the float range while F_vac does not."""
        j = SpectralDensity(a=1.0, omega_c=1e300, d=1)
        assert F_vac(j, 1e300) == pytest.approx(600.0 * math.log(10.0), rel=1e-15)
        j = SpectralDensity(a=1e308, omega_c=1.0, d=3)
        assert F_vac(j, 1.0) == pytest.approx(1e308, rel=1e-15)
        # a [1 - (1 - x)/(1 + x)^2] peaks at 1.125 a, x = 3
        with pytest.raises(PhysicsError, match="F_vac overflows"):
            F_vac(SpectralDensity(a=1.7e308, omega_c=1.0, d=3), math.sqrt(3.0))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_values_below_the_overflow_are_the_x_forms(self, d):
        """Where x = (omega_c t)^2 and the numerator stay finite, the forms in
        x are evaluated exactly as written, so those values keep their bytes."""
        for a in (0.7, 3.0):
            j = SpectralDensity(a=a, omega_c=10.0, d=d)
            # omega_c t = 10 t stays below where x, a x or a x^2 overflows:
            # 1.34e154, 1.34e154/sqrt(a) and 1.16e77/a^(1/4) for a >= 1
            big = max(a, 1.0)
            top = {1: 1.3e153, 2: 1.3e153 / math.sqrt(big), 3: 1.1e76 / big ** 0.25}[d]
            for t in (1e-3, 1.0, 1e60, 1e-3 * top, top):
                x = (j.omega_c * t) ** 2
                if d == 1:
                    want = 0.5 * j.a * math.log1p(x)
                elif d == 2:
                    want = float(j.a * x / (1.0 + x))
                else:
                    want = float(j.a * (3.0 * x + x * x) / (1.0 + x) ** 2)
                assert F_vac(j, t) == want


class TestThermalDecay:
    def test_exact_series(self):
        # independent oracle: expanding coth - 1 in exp(-n w/T) gives
        # F_th = a sum_n log(1 + t^2/(1/omega_c + n/T)^2), exact with cutoff
        j = SpectralDensity(a=1.0, omega_c=1.0)
        temp = 1e-3
        n = np.arange(1, 2_000_001, dtype=float)
        for t in (10.0, 31.6, 100.0):
            b = 1.0 / j.omega_c + n / temp
            series = j.a * (np.sum(np.log1p(t * t / (b * b))) + (t * temp) ** 2 / n[-1])
            assert F_th(j, temp, t) == pytest.approx(series, rel=1e-8)

    def test_sinh_form_high_cutoff(self):
        # for T << omega_c the excess approaches a log(sinh(x)/x), x = t/t_T;
        # residual is the cutoff correction 2(T/omega_c) zeta(3)/zeta(2)
        j = SpectralDensity(a=1.0, omega_c=1.0)
        temp = 1e-3
        t_t = matsubara_time(temp)
        correction = 2.0 * temp / j.omega_c * 1.2020569 / 1.6449341
        for t in (10.0, 31.6, 100.0):
            x = t / t_t
            expected = j.a * math.log(math.sinh(x) / x)
            val = F_th(j, temp, t)
            assert val == pytest.approx(expected, rel=2e-3)
            assert (expected - val) / expected == pytest.approx(correction, rel=0.05)

    def test_zero_temperature_or_time(self):
        j = SpectralDensity(a=1.0, omega_c=1.0)
        assert F_th(j, 0.0, 5.0) == 0.0
        assert F_th(j, 2.0, 0.0) == 0.0

    def test_long_time_linear_in_t(self):
        # deep thermal regime: slope approaches a/t_T with O(t_T/t) correction
        j = SpectralDensity(a=0.7, omega_c=1.0)
        temp = 0.05
        t_t = matsubara_time(temp)
        t1, t2 = 300.0 * t_t, 330.0 * t_t
        slope = (F_th(j, temp, t2) - F_th(j, temp, t1)) / (t2 - t1)
        assert slope == pytest.approx(j.a / t_t, rel=5e-3)

    def test_monotone_in_temperature(self):
        j = SpectralDensity(a=1.0, omega_c=1.0)
        vals = [F_th(j, temp, 3.0) for temp in (0.01, 0.1, 1.0)]
        assert vals[0] < vals[1] < vals[2]
        assert vals[0] > 0.0


def times_over_y(omega_c, temp):
    """Times for y = T t from 1e-6 to 1e2, plus y = 0.99 w/4 and 1.01 w/4."""
    w = 1.0 + temp / omega_c
    ys = [*np.geomspace(1e-6, 1e2, 7), 0.99 * w / 4.0, 1.01 * w / 4.0]
    return [y / temp for y in ys]


def benchmark_times(omega_c):
    """Times of the benchmark's dephase jobs: 1e-3/omega_c to 60."""
    return list(np.geomspace(1e-3 / omega_c, 60.0, 5))


class TestClosedFormOracles:
    # (omega_c, T): a cold and a hot bath, and the two extreme T/omega_c
    # corners of the benchmark's dephase range (omega_c 5-20, T 0.05-0.5)
    @pytest.mark.parametrize("omega_c, temp, bench", [
        (1.0, 1e-4, False), (0.5, 3.0, False), (5.0, 0.5, True), (20.0, 0.05, True)])
    @pytest.mark.parametrize("d", (1, 2, 3))
    def test_matches_matsubara_series(self, d, omega_c, temp, bench):
        j = SpectralDensity(a=0.7, omega_c=omega_c, d=d)
        ts = times_over_y(omega_c, temp) + (benchmark_times(omega_c) if bench else [])
        vac, th = matsubara_decay(j, temp, ts)
        assert max(relative_errors([F_vac(j, t) for t in ts], vac)) <= 1e-11
        assert max(relative_errors([F_th(j, temp, t) for t in ts], th)) <= 1e-11

    @pytest.mark.parametrize("d", (1, 2, 3))
    def test_matches_quadrature_in_its_window(self, d):
        cases = [(omega_c, temp, times_over_y(omega_c, temp))
                 for omega_c, temp in ((1.0, 0.01), (5.0, 0.5), (0.5, 3.0))]
        # T/omega_c = 0.0025 is inside the window only over the benchmark's times
        cases.append((20.0, 0.05, benchmark_times(20.0)))
        for omega_c, temp, ts in cases:
            j = SpectralDensity(a=0.7, omega_c=omega_c, d=d)
            got = [F_th(j, temp, t) for t in ts]
            assert max(relative_errors(got, [quad_decay(j, temp, t) for t in ts])) <= 1e-9

    # QAWO warns of roundoff at t = 1e5; the oracle's own error check holds
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("d", (1, 2, 3))
    def test_vacuum_matches_quadrature(self, d):
        for omega_c in (0.5, 5.0, 20.0):
            j = SpectralDensity(a=0.7, omega_c=omega_c, d=d)
            ts = np.geomspace(1e-4 / omega_c, 1e5, 7)
            got = [F_vac(j, t) for t in ts]
            assert max(relative_errors(got, [quad_decay(j, 0.0, t) for t in ts])) <= 1e-9


# (w, y) pairs of the gamma-function forms: w = 1 + T/omega_c up to
# T/omega_c = 30, y = T t from 1e-7 to 1e3
GAMMA_W = (1.0, 1.0025, 1.1, 2.0, 7.3, 31.0)
GAMMA_Y = tuple(np.geomspace(1e-7, 1e3, 11))


class TestGammaKernels:
    """trigamma and the decay functions against their closed forms in
    lnGamma, psi and psi' evaluated by 40-digit mpmath."""

    def test_trigamma(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for x in GAMMA_W + tuple(np.geomspace(1e-3, 1e200, 12)):
                want = float(mpmath.psi(1, x))
                assert trigamma(x) == pytest.approx(want, rel=2e-15, abs=0.0)

    @pytest.mark.parametrize("d", (1, 2, 3))
    def test_decay_functions_within_bar_of_mpmath(self, d):
        """F_th within 1e-14 and F_vac within 1.4e-13 of their closed forms
        evaluated at 40 digits, over T/omega_c <= 30 and y from 1e-7 to 1e3."""
        mpmath = pytest.importorskip("mpmath")
        a, omega_c = 0.7, 1.0
        j = SpectralDensity(a=a, omega_c=omega_c, d=d)
        with mpmath.workdps(40):
            for ratio in (0.0025, 0.01, 0.5, 3.0, 30.0):
                temp = ratio * omega_c
                c = mpmath.mpf(temp) / omega_c
                w = 1 + c
                for y in GAMMA_Y + (0.2 * (1 + ratio), 0.3 * (1 + ratio)):
                    t = y / temp
                    z = mpmath.mpc(w, y)
                    if d == 1:
                        th = 2 * a * (mpmath.loggamma(w) - mpmath.re(mpmath.loggamma(z)))
                    elif d == 2:
                        th = 2 * a * c * (mpmath.re(mpmath.digamma(z)) - mpmath.digamma(w))
                    else:
                        th = 2 * a * c ** 2 * (mpmath.psi(1, w) - mpmath.re(mpmath.psi(1, z)))
                    x = (omega_c * mpmath.mpf(t)) ** 2
                    vac = [a / 2 * mpmath.log1p(x), a * x / (1 + x),
                           a * (3 * x + x * x) / (1 + x) ** 2][d - 1]
                    assert F_th(j, temp, t) == pytest.approx(float(th), rel=1e-14, abs=0.0)
                    assert F_vac(j, t) == pytest.approx(float(vac), rel=1.4e-13, abs=0.0)


class TestBeyondQuadratureWindow:
    # Outside the quadrature oracle's window, where F_th came out 1.3-4.1% low
    # at long times and exactly 0 for T <= 3e-5, without an error.
    @pytest.mark.parametrize("temp, t, reference", [
        (1e-3, 1e4, 27.2697047458),
        (1e-3, 1e5, 307.705854962),
        (1e-4, 1e5, 27.2748882659),
        (3e-5, 10.0, 1.48037570789e-7),
    ])
    def test_matches_matsubara_series(self, temp, t, reference):
        j = SpectralDensity(a=1.0, omega_c=1.0)
        series = matsubara_decay(j, temp, [t])[1][0]
        assert series == pytest.approx(reference, rel=1e-10)
        assert F_th(j, temp, t) == pytest.approx(series, rel=1e-10)

    @pytest.mark.parametrize("d", (1, 2, 3))
    def test_hot_bath_small_y_series_is_finite(self, d):
        """T = 1e12 omega_c puts y = T t up to 1e11 while y < w/4."""
        mpmath = pytest.importorskip("mpmath")
        a, temp = 0.5, 1e12
        j = SpectralDensity(a=a, omega_c=1.0, d=d)
        with mpmath.workdps(40):
            c = mpmath.mpf(temp)
            w = 1 + c
            for t in (0.01, 0.03, 0.1):
                z = mpmath.mpc(w, c * mpmath.mpf(t))
                if d == 1:
                    th = 2 * a * (mpmath.loggamma(w) - mpmath.re(mpmath.loggamma(z)))
                elif d == 2:
                    th = 2 * a * c * (mpmath.re(mpmath.digamma(z)) - mpmath.digamma(w))
                else:
                    th = 2 * a * c ** 2 * (mpmath.psi(1, w) - mpmath.re(mpmath.psi(1, z)))
                assert F_th(j, temp, t) == pytest.approx(float(th), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("temp, t", [(1e300, 1e-300), (1e200, 1e-195), (1e155, 1e-155)])
    def test_hot_bath_tiny_y_over_x(self, temp, t):
        """d = 1 at y/x <= 1e-150, where (y/x)^2 underflows: the series is
        a y^2 psi'(1 + T/omega_c). The tail y theta - x L once kept y theta
        alone and came out twice that at T = 1e300."""
        j = SpectralDensity(a=1.0, omega_c=1.0)
        y = temp * t
        want = y * y * float(polygamma(1, 1.0 + temp))
        assert F_th(j, temp, t) == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("d", (1, 2, 3))
    def test_numpy_times_up_to_huge_y(self, d):
        """numpy float64 times, as the CLI passes them, up to y = T t = 1e300:
        finite, and at d = 3 on the long-time plateau, where every g_k is 1."""
        j = SpectralDensity(a=0.5, omega_c=1.0, d=d)
        temp = 1e10
        values = [F_th(j, temp, t) for t in np.geomspace(1e-20, 1e290, 32)]
        assert all(isinstance(v, float) and math.isfinite(v) and v >= 0.0 for v in values)
        if d == 3:
            assert values[-1] == pytest.approx(F_superohmic_limit(j, temp), rel=1e-15)


# the whole positive double range, both ends included
POSITIVE = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)


class TestFiniteOrPhysicsError:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(d=st.sampled_from((1, 2, 3)), a=POSITIVE, omega_c=POSITIVE,
           temp=POSITIVE, t=POSITIVE)
    # (T/omega_c)^2 = 1e400 is beyond the float range; in the second, so is
    # 2a (T/omega_c)^2 while the sum underflows
    @example(d=3, a=1.0, omega_c=1.0, temp=1e200, t=1.0)
    @example(d=3, a=10.228925681404194, omega_c=6.015337525697142e-129,
             temp=3.617154774257854e25, t=4.708103317027069e-81)
    def test_decay_functions(self, d, a, omega_c, temp, t):
        """F_vac and F_th return a finite float >= 0 or raise PhysicsError."""
        j = SpectralDensity(a=a, omega_c=omega_c, d=d)
        for call in (lambda: F_vac(j, t), lambda: F_th(j, temp, t)):
            try:
                value = call()
            except PhysicsError:
                continue
            assert isinstance(value, float) and math.isfinite(value) and value >= 0.0


class TestTrigamma:
    def test_known_values(self):
        assert trigamma(1.0) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-12)
        assert trigamma(2.0) == pytest.approx(math.pi ** 2 / 6.0 - 1.0, rel=1e-12)
        assert trigamma(0.5) == pytest.approx(math.pi ** 2 / 2.0, rel=1e-12)

    def test_against_scipy(self):
        for x in (0.1, 0.9, 1.5, 3.7, 8.0, 25.0, 400.0):
            assert trigamma(x) == pytest.approx(float(polygamma(1, x)), rel=1e-11)

    def test_domain(self):
        with pytest.raises(PhysicsError):
            trigamma(0.0)
        with pytest.raises(PhysicsError):
            trigamma(complex(0.0, 2.0))


class TestSuperOhmicPlateau:
    def test_matches_quadrature(self):
        # saturation value reached by t = 1e4 / omega_c within 1%
        for r in (0.1, 1.0):
            j = SpectralDensity(a=1.0, omega_c=1.0, d=3)
            plateau = F_superohmic_limit(j, r)
            assert F_th(j, r, 1e4) == pytest.approx(plateau, rel=0.01)

    def test_series_route(self):
        # 2 a r^2 sum_{n>=1} (n + r)^{-2}: independent of trigamma code path
        j = SpectralDensity(a=1.4, omega_c=2.0, d=3)
        temp = 0.6
        r = temp / j.omega_c
        n = np.arange(1, 200001, dtype=float)
        tail = 1.0 / (n[-1] + r + 0.5)  # Euler-Maclaurin midpoint remainder
        series = 2.0 * j.a * r * r * (np.sum((n + r) ** -2.0) + tail)
        assert F_superohmic_limit(j, temp) == pytest.approx(series, rel=1e-9)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(PhysicsError):
            F_superohmic_limit(SpectralDensity(a=1.0, omega_c=1.0, d=1), 1.0)


class TestRegimes:
    def test_labels_and_predictions(self):
        j = SpectralDensity(a=1.0, omega_c=1.0)
        temp = 1e-3
        label, f = classify_regime(j, temp, 0.1)
        assert label == "short_time" and f == pytest.approx(0.005)
        label, f = classify_regime(j, temp, 10.0)
        assert label == "vacuum" and f == pytest.approx(math.log(10.0))
        label, f = classify_regime(j, temp, 1000.0)
        assert label == "thermal" and f == pytest.approx(1000.0 * math.pi * temp)

    def test_prediction_tracks_exact_decay(self):
        # linear thermal growth dominates the log only once t/t_T >> log(wc t)
        j = SpectralDensity(a=1.0, omega_c=1.0)
        temp = 0.01
        label, predicted = classify_regime(j, temp, 1e4)
        assert label == "thermal"
        exact = F_vac(j, 1e4) + F_th(j, temp, 1e4)
        assert exact == pytest.approx(predicted, rel=0.02)

    def test_overlapping_scales_rejected(self):
        with pytest.raises(PhysicsError):
            classify_regime(SpectralDensity(a=1.0, omega_c=1.0), 1.0, 0.5)

    def test_matsubara_time(self):
        assert matsubara_time(2.0) == pytest.approx(1.0 / (2.0 * math.pi))
        with pytest.raises(PhysicsError):
            matsubara_time(0.0)


class TestDiscretizationConvergence:
    def test_vacuum_converges_to_continuum(self):
        j = SpectralDensity(a=1.0, omega_c=1.0)
        bath = discretize_spectral_density(j, 2000)
        for t in (0.1, 0.5, 2.0, 10.0):
            discrete = -math.log(abs(chi_vacuum_discrete(bath, t)))
            assert discrete == pytest.approx(F_vac(j, t), rel=1e-3)

    def test_thermal_converges_to_continuum(self):
        j = SpectralDensity(a=0.5, omega_c=1.0)
        temp = 0.5
        bath = discretize_spectral_density(j, 4000)
        for t in (0.5, 2.0):
            discrete = -math.log(abs(chi_thermal_discrete(bath, temp, t)))
            expected = F_vac(j, t) + F_th(j, temp, t)
            assert discrete == pytest.approx(expected, rel=2e-3)


class TestNQubit:
    def test_weights_brute_force(self):
        # both coupling patterns reduce to bit counts; check every pair N <= 6
        for n_q in range(1, 7):
            for m in range(2 ** n_q):
                for n in range(2 ** n_q):
                    exc = bin(m).count("1") - bin(n).count("1")
                    assert coherence_weight(m, n, "same_reservoir") == exc * exc
                    assert coherence_weight(m, n, "different_reservoirs") == bin(m ^ n).count("1")

    def test_dfs_pair_immune(self):
        # |01> vs |10>: equal excitation, collective bath cannot see the pair
        assert n_qubit_coherence(2, 0b01, 0b10, "same_reservoir", 50.0) == 1.0

    def test_ghz_pair_accelerated(self):
        # |000> vs |111>: same reservoir gives N^2 = 9, independent baths N = 3
        decay = 0.7
        assert n_qubit_coherence(3, 0, 7, "same_reservoir", decay) == math.exp(-9 * decay)
        assert n_qubit_coherence(3, 0, 7, "different_reservoirs", decay) == math.exp(-3 * decay)

    def test_index_range_checked(self):
        with pytest.raises(PhysicsError):
            n_qubit_coherence(2, 4, 0, "same_reservoir", 1.0)
        with pytest.raises(PhysicsError):
            coherence_weight(0, 1, "collective")

    def test_dfs_group_sizes(self):
        groups = dfs_states(4)
        assert [len(g) for g in groups] == [1, 4, 6, 4, 1]
        flat = sorted(i for g in groups for i in g)
        assert flat == list(range(16))

    def test_dfs_largest_group_is_central_binomial(self):
        for n_q in range(1, 8):
            groups = dfs_states(n_q)
            assert max(len(g) for g in groups) == math.comb(n_q, n_q // 2)
