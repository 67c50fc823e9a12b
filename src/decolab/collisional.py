"""Scattering-environment rates for heavy particles and discrete channels.

Everything here reduces to thermal averages of scattering amplitudes over a
Maxwell gas: the spatial localization rate and momentum-transfer gain rate
of an immobile heavy particle, and the complex rate tensor driving the
channel-basis master equation of a fixed scatterer with internal levels
(populations obey a rate equation, coherences pick up elastic dephasing).

An amplitude is a partial-wave sum f = sum_l c_l(E) P_l(cos theta), stored
as its Legendre coefficients c_l, so every angular integral is finite
Legendre algebra in them. By orthogonality of the P_l,
int f_a f_b^* dcos theta = 2 sum_l c_{a,l} c_{b,l}^* / (2l+1), which gives the
cross section and the rate-tensor and dephasing integrands; the forward
amplitude is sum_l c_l. |f|^2 is a polynomial of degree 2 l_max in
cos theta, so its Legendre moments a_L are exact on one Gauss-Legendre rule
of 2 l_max + 2 nodes.

Every thermal average uses one composite Gauss-Legendre rule in the reduced
speed s = v/v_th on [0, _SPEED_CUT], doubled until the value settles, with
each amplitude's coefficients computed once per rule. Above the threshold
s_lo = sqrt(gap/T) of an upward gap, s^2 = u^2 + s_lo^2 with u on the rule
makes the outgoing speed exactly v_th u: no square-root edge at threshold.

The localization and saturation rates come from one table on that rule: the
moments a_L of |f|^2 at its nodes. The spherical-Bessel addition theorem
j0(2z sin(theta/2)) = sum_L (2L+1) j_L(z)^2 P_L(cos theta) turns the angular
integral of |f|^2 sinc into the sum 2 sum_L a_L j_L(z)^2, so only the speed
integral is left (Hornberger & Sipe, PRA 68, 012105 (2003)).
Natural units: hbar = k_B = 1; masses and temperatures in matching units.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import legval, legvander

from .errors import DimensionError, PhysicsError, QuadratureError

_GL_MAX = 8192
_GL_RTOL = 1e-10
# Maxwell weight exp(-s^2) at s = 8 leaves a relative tail below 1e-12
_SPEED_CUT = 8.0
# Gauss-Legendre nodes per speed panel, and panels of the coarsest speed table
_PANEL_ORDER = 16
_PANEL_START = 4
# array elements per chunk of oscillation panels, so memory stays bounded in x
_CHUNK = 1 << 16
# partial waves of one hard sphere: the moment table's Legendre-Vandermonde
# matrix alone holds (2 l_max)^2 doubles, 3.2 GB at this cutoff
_PARTIAL_WAVE_MAX = 10_000


@dataclass(frozen=True)
class GasModel:
    """Ideal Maxwell gas: number density, particle mass, temperature."""

    n_gas: float
    m: float
    temperature: float

    def __post_init__(self):
        if self.n_gas <= 0 or self.m <= 0 or self.temperature <= 0:
            raise PhysicsError("gas density, mass and temperature must be positive")

    @property
    def thermal_speed(self) -> float:
        return math.sqrt(2.0 * self.temperature / self.m)

    @property
    def mean_speed(self) -> float:
        return math.sqrt(8.0 * self.temperature / (math.pi * self.m))


def maxwell_speed_pdf(gas: GasModel, v) -> np.ndarray:
    """3D Maxwell-Boltzmann speed density 4 pi (m/2 pi T)^{3/2} v^2 e^{-mv^2/2T}."""
    v = np.asarray(v, dtype=float)
    if np.any(v < 0):
        raise PhysicsError("speed must be nonnegative")
    pref = 4.0 * math.pi * (gas.m / (2.0 * math.pi * gas.temperature)) ** 1.5
    return pref * v**2 * np.exp(-gas.m * v**2 / (2.0 * gas.temperature))


@dataclass(frozen=True)
class IsotropicAmplitude:
    """Rotationally invariant scattering amplitude f(cos theta; E), of
    dimension length, as the partial-wave sum sum_l c_l(E) P_l(cos theta).

    `coefficients` maps a 1-d array of n_E incoming kinetic energies to the
    (n_E, l_max + 1) complex array of Legendre coefficients c_l(E).
    """

    coefficients: object

    def __call__(self, cos_theta, energy):
        row = self.coefficients(np.array([float(energy)]))[0]
        return np.asarray(legval(np.asarray(cos_theta, dtype=float), row), dtype=complex)


def constant_amplitude(value) -> IsotropicAmplitude:
    """Pure s-wave scatterer: the same complex length at every angle and energy."""
    value = complex(value)
    return IsotropicAmplitude(lambda e: np.full((len(e), 1), value, dtype=complex))


def _upward(f_prev, f_0, z, l_max: int) -> np.ndarray:
    """f_0..f_{l_max} from f_{l+1} = (2l+1) f_l / z - f_{l-1}, given f_{-1}, f_0."""
    rows = [f_prev, f_0]
    for l in range(l_max):
        rows.append((2 * l + 1) * rows[-1] / z - rows[-2])
    return np.array(rows[1:])


def _spherical_j(l_max: int, z) -> np.ndarray:
    """Spherical Bessel functions j_l(z), l = 0..l_max, as rows over a 1-d
    array of z >= 0: upward recurrence where z > l_max, and Miller's
    downward recurrence in ratio form elsewhere,
    rho_l = j_l/j_{l-1} = z/(2l+1 - z rho_{l+1}) from rho = 0 at
    N = l_max + 20 + sqrt(40(l_max+1)), which cannot overflow; the products
    of the rho_l are normalised by whichever of j_0 = sin z/z and j_1 is
    larger in magnitude (Gautschi, SIAM Rev. 9, 24 (1967)).
    """
    j = np.empty((l_max + 1, z.size))
    up = z > l_max
    zu, zd = z[up], z[~up]
    with np.errstate(divide="ignore", invalid="ignore"):
        j[:, up] = _upward(np.cos(zu) / zu, np.sin(zu) / zu, zu, l_max)
        j0 = np.where(zd > 0, np.sin(zd) / zd, 1.0)
        j1 = np.where(zd > 0, (j0 - np.cos(zd)) / zd, 0.0)
    rho = np.zeros((l_max + 1, zd.size))
    if zd.size:
        top = int(l_max + 20 + math.sqrt(40 * (l_max + 1)))
        # with z <= l_max every denominator at l >= l_max exceeds l + 1, so a
        # zero one falls on a stored order and leaves an inf there: only then
        # is the guarded pass needed
        with np.errstate(all="ignore"):
            _miller_ratios(rho, zd, top, guard=False)
        if not np.isfinite(rho).all():
            _miller_ratios(rho, zd, top, guard=True)
    rho[0] = j0
    if l_max:
        rho[1] = np.where(np.abs(j1) > np.abs(j0), j1, j0 * rho[1])
        np.cumprod(rho[1:], axis=0, out=rho[1:])
    j[:, ~up] = rho
    return j


def _miller_ratios(rho, z, top: int, guard: bool) -> None:
    """rho[l] = z / (2l+1 - z rho[l+1]) for 1 <= l < len(rho), downward from
    rho_{top+1} = 0. With guard, a zero denominator (only at a zero of
    j_{l-1}) becomes a tiny value, which keeps every ratio finite."""
    cur = np.zeros_like(z)
    rows = len(rho)
    for l in range(top, 0, -1):
        den = 2 * l + 1 - z * cur
        if guard and not den.all():
            den[den == 0.0] = 1e-300
        cur = z / den
        if l < rows:
            rho[l] = cur


def _spherical_jy(l_max: int, z):
    """(j_l(z), y_l(z)), l = 0..l_max, as rows over a 1-d array of z >= 0;
    y_l, the growing solution, by upward recurrence (-inf past overflow)."""
    with np.errstate(all="ignore"):
        y = _upward(np.sin(z) / z, -np.cos(z) / z, z, l_max)
    y[np.isnan(y)] = -np.inf
    return _spherical_j(l_max, z), y


def hard_sphere_amplitude(radius: float, mass: float) -> IsotropicAmplitude:
    """Hard-sphere partial waves c_l = (2l+1) t_l / k with
    t_l = tan(delta_l) / (1 - i tan(delta_l)) and tan(delta_l) = j_l(kr) / y_l(kr).

    Every energy shares the cutoff l_max = kr + 8 (kr)^(1/3) + 12 of the
    largest kr, where the phase shifts are negligible; a row whose last
    coefficient exceeds 1e-8 of its summed magnitudes raises, and so does
    l_max beyond _PARTIAL_WAVE_MAX. Below
    kr = 1e-8 a row is the s-wave limit c_0 = -r (scattering length = radius).
    """
    if radius <= 0 or mass <= 0:
        raise PhysicsError("radius and mass must be positive")

    def coefficients(energies):
        k = np.sqrt(np.maximum(2.0 * mass * np.asarray(energies, dtype=float), 0.0))
        x = k * radius
        top = float(x.max())
        cut = top + 8.0 * top ** (1.0 / 3.0) + 12.0
        if not cut < _PARTIAL_WAVE_MAX + 1:
            raise PhysicsError(
                f"hard sphere at k r = {top:.6g} needs l_max = {cut:.6g} partial "
                f"waves, more than the {_PARTIAL_WAVE_MAX} the moment table can hold")
        ells = np.arange(int(cut) + 1)
        coeffs = np.zeros((x.size, ells.size), dtype=complex)
        coeffs[:, 0] = -radius
        wave = x >= 1e-8
        j, y = _spherical_jy(ells[-1], x[wave])
        tan_delta = (j / y).T
        coeffs[wave] = (2 * ells + 1) * tan_delta / (1.0 - 1j * tan_delta) / k[wave, None]
        tail = np.abs(coeffs[:, -1])
        if np.any(tail > 1e-8 * np.maximum(np.abs(coeffs).sum(axis=1), 1e-300)):
            raise QuadratureError("partial-wave sum did not converge")
        return coeffs

    return IsotropicAmplitude(coefficients)


@functools.cache
def _gl_rule(n: int):
    return np.polynomial.legendre.leggauss(n)


def _overlap(c_a: np.ndarray, c_b: np.ndarray) -> np.ndarray:
    """int f_a f_b^* dcos theta = 2 sum_l c_{a,l} c_{b,l}^* / (2l+1), row by
    row, for coefficient rows of f_a and f_b along the last axis; orders past
    the shorter row add 0."""
    width = min(c_a.shape[-1], c_b.shape[-1])
    terms = c_a[..., :width] / (2 * np.arange(width) + 1) * c_b[..., :width].conj()
    return 2.0 * terms.sum(axis=-1)


def _speed_rule(n_panels: int):
    """Nodes and weights of n_panels equal _PANEL_ORDER-point Gauss-Legendre
    panels on [0, _SPEED_CUT]."""
    ref, w = _gl_rule(_PANEL_ORDER)
    half = 0.5 * _SPEED_CUT / n_panels
    nodes = (half * (2 * np.arange(n_panels)[:, None] + 1 + ref)).ravel()
    return nodes, np.tile(half * w, n_panels)


def _settled(weighted_terms):
    """Sum of weighted_terms(n_panels) on speed rules of _PANEL_START, 2x,
    4x ... panels, until two successive sums agree within _GL_RTOL of the sum
    of the terms' magnitudes (at most _GL_MAX nodes), so an integrand that
    changes sign or phase settles even where its value cancels."""
    value = None
    n_panels = _PANEL_START
    while n_panels * _PANEL_ORDER <= _GL_MAX:
        terms = weighted_terms(n_panels)
        refined = np.sum(terms)
        if value is not None and abs(refined - value) <= _GL_RTOL * np.sum(np.abs(terms)):
            return refined
        value = refined
        n_panels *= 2
    raise QuadratureError("speed integral did not settle", estimate=value)


def _maxwell_average(gas: GasModel, per_speed, gap: float = 0.0):
    """Thermal average int dv nu(v) g(v) over the speeds that can pay an
    energy gap, with g = per_speed(energy, v_out) at arrays of incoming
    kinetic energies and outgoing speeds. In u, with s^2 = u^2 + max(gap, 0)/T,
    the measure is (4/sqrt(pi)) u s e^{-s^2} du and
    v_out = v_th sqrt(u^2 + max(-gap, 0)/T), the incoming speed when gap = 0."""
    s_lo2 = max(gap, 0.0) / gas.temperature
    down2 = max(-gap, 0.0) / gas.temperature

    def weighted_terms(n_panels):
        u, w = _speed_rule(n_panels)
        s2 = u * u + s_lo2
        g = per_speed(gas.temperature * s2, gas.thermal_speed * np.sqrt(u * u + down2))
        return 4.0 / math.sqrt(math.pi) * w * u * np.sqrt(s2) * np.exp(-s2) * g

    return _settled(weighted_terms)


def total_cross_section(amp: IsotropicAmplitude, energy: float) -> float:
    """sigma(E) = 2 pi int |f|^2 dcos = 4 pi sum_l |c_l|^2 / (2l+1)."""
    c = amp.coefficients(np.array([float(energy)]))[0]
    return 2.0 * math.pi * float(_overlap(c, c).real)


def _moment_rows(amp: IsotropicAmplitude, energies) -> np.ndarray:
    """Legendre moments a_L(E) of |f(cos theta, E)|^2, one row per energy.

    With coefficients up to l_max, |f|^2 P_L has degree at most 4 l_max for
    L <= 2 l_max, so one Gauss-Legendre rule of 2 l_max + 2 nodes gives
    every nonzero moment a_L = (2L+1)/2 int |f|^2 P_L dcos exactly.
    Trailing moments below _GL_RTOL a_0 at every energy are dropped: since
    sum_L j_L(z)^2 <= sum_L (2L+1) j_L(z)^2 = 1, either set moves the
    localization bracket by at most _GL_RTOL a_0.
    """
    coeffs = amp.coefficients(np.asarray(energies, dtype=float))
    width = coeffs.shape[1]
    nodes, weights = _gl_rule(2 * width)
    vander = legvander(nodes, 2 * width - 2)
    f2 = np.abs(coeffs @ vander[:, :width].T) ** 2
    rows = ((f2 * weights) @ vander) * (np.arange(2 * width - 1) + 0.5)
    kept = np.abs(rows) > _GL_RTOL * rows[:, :1]
    return rows[:, :1 + np.flatnonzero(kept.any(axis=0)).max(initial=0)]


@dataclass(frozen=True)
class _SpeedTable:
    """Moments a_L(s) at the nodes s of n_panels equal Gauss-Legendre panels
    on [0, _SPEED_CUT]; weight holds the rule's weights times s^3 e^{-s^2}."""

    n_panels: int
    s: np.ndarray
    weight: np.ndarray
    moments: np.ndarray


# speed tables of each live amplitude, keyed on (gas, n_panels): every x of
# localization_rate and the saturation rate share them, and an entry goes
# with its amplitude
_TABLES = weakref.WeakKeyDictionary()


def _speed_table(amp: IsotropicAmplitude, gas: GasModel, n_panels: int) -> _SpeedTable:
    tables = _TABLES.setdefault(amp, {})
    table = tables.get((gas, n_panels))
    if table is None:
        s, w = _speed_rule(n_panels)
        weight = w * s**3 * np.exp(-s * s)
        moments = _moment_rows(amp, 0.5 * gas.m * (gas.thermal_speed * s) ** 2)
        for array in (s, weight, moments):
            array.flags.writeable = False
        table = tables[gas, n_panels] = _SpeedTable(n_panels, s, weight, moments)
    return table


def _settled_rate(amp: IsotropicAmplitude, gas: GasModel, integral) -> float:
    """16 sqrt(pi) n v_th integral(table), settled over the speed tables of
    successive rules. The prefactor is n v_th (4/sqrt(pi)) 4 pi, so the
    table's sum of s^3 e^{-s^2} a_0 gives n <sigma v> with sigma = 4 pi a_0."""
    pref = 16.0 * math.sqrt(math.pi) * gas.n_gas * gas.thermal_speed
    return float(_settled(lambda n_panels: pref * integral(_speed_table(amp, gas, n_panels))))


def _saturation_integral(table: _SpeedTable) -> float:
    return float(table.weight @ table.moments[:, 0])


def saturation_rate(amp: IsotropicAmplitude, gas: GasModel) -> float:
    """Total collision rate n <sigma v>: the large-distance localization
    limit, the thermal average of 4 pi a_0 v over the moment table."""
    return _settled_rate(amp, gas, _saturation_integral)


@functools.cache
def _riccati_bessel_bound(n: int) -> np.ndarray:
    """mu_L >= max_z (z j_L(z))^2 for L < n.

    z j_L(z) rises until after the turning point z_L = sqrt(L(L+1)), and the
    modulus z^2 (j_L^2 + y_L^2) falls for all z (Nicholson), so its value
    at z_L bounds the maximum; it is within a factor 1.8 of it for L <= 200.
    """
    ells = np.arange(1, n)
    z = np.sqrt(ells * (ells + 1.0))
    j, y = _spherical_jy(n - 1, z)
    modulus = z * z * (j[ells, ells - 1] ** 2 + y[ells, ells - 1] ** 2)
    mu = np.concatenate(([1.0], modulus))
    mu.flags.writeable = False
    return mu


# direct tail terms beyond the table at z <= 1: each further term there is
# below 0.071 of the previous, and ten leave less than 3e-16 of the tail
_DIRECT_TAIL = 10


def _bracket(a, z) -> np.ndarray:
    """sum_{L>=1} ((2L+1) a_0 - a_L) j_L(z)^2 for each row of moments a, with
    a_L = 0 beyond the row; |a_L| <= (2L+1) a_0 makes every term nonnegative.

    Its tail a_0 sum_{L>L_f} (2L+1) j_L^2 is a_0 (1 - sum_{L<=L_f} (2L+1)
    j_L^2), except at z <= 1, where that difference cancels and the tail is
    summed term by term instead.
    """
    width = a.shape[1]
    ells = np.arange(width + _DIRECT_TAIL)
    degen = 2 * ells + 1
    jl2 = _spherical_j(width - 1, z) ** 2
    tail = 1.0 - degen[:width] @ jl2
    small = z <= 1.0
    if small.any():
        tail[small] = degen[width:] @ _spherical_j(ells[-1], z[small])[width:] ** 2
    inner = np.sum((degen[1:width] * a[:, :1] - a[:, 1:]) * jl2[1:].T, axis=1)
    return inner + a[:, 0] * tail


@functools.cache
def _panel_to_coef() -> np.ndarray:
    """Node values on a _PANEL_ORDER-point panel -> Legendre coefficients of
    their interpolant."""
    q = _PANEL_ORDER
    ref, w = _gl_rule(q)
    to_coef = (np.arange(q) + 0.5)[:, None] * legvander(ref, q - 1).T * w
    to_coef.flags.writeable = False
    return to_coef


def _bracket_integral(table: _SpeedTable, beta: float, sub: int) -> float:
    """int_0^{_SPEED_CUT} ds s^3 e^{-s^2} bracket(beta s) on `sub` equal
    Gauss-Legendre sub-panels per table panel. The moments at the sub-panel
    nodes come from the polynomial through each table panel's nodes, which
    returns the table's own values to roundoff when sub = 1. The work goes
    in chunks of about _CHUNK array elements."""
    q = _PANEL_ORDER
    ref, w = _gl_rule(q)
    to_coef = _panel_to_coef()
    half = 0.5 * _SPEED_CUT / table.n_panels
    centers = half * (2 * np.arange(table.n_panels) + 1)
    moments = table.moments.reshape(table.n_panels, q, -1)
    width = moments.shape[2]
    step = max(1, _CHUNK // (table.n_panels * q * (width + _DIRECT_TAIL)))
    total = 0.0
    for first in range(0, sub, step):
        parts = np.arange(first, min(sub, first + step))
        t = ((2 * parts[:, None] + 1 + ref) / sub - 1.0).ravel()
        a = (legvander(t, q - 1) @ to_coef) @ moments
        s = (centers[:, None] + half * t).ravel()
        weight = np.tile(half / sub * w, table.n_panels * parts.size) * s**3 * np.exp(-s * s)
        total += float(weight @ _bracket(a.reshape(-1, width), beta * s))
    return total


def localization_rate(amp: IsotropicAmplitude, gas: GasModel, x: float) -> float:
    """Decay rate of spatial coherence over separation x: thermal average of
    v [sigma(E) - 2 pi int |f|^2 sinc(2 sin(theta/2) m v x) dcos]; zero at
    x = 0, saturating at the total collision rate for large separation.

    With beta = m v_th x and the Legendre coefficients a_L(s) of
    |f|^2 = sum_L a_L P_L(cos theta) at gas speed s v_th, the rate is
    16 sqrt(pi) n v_th int ds s^3 e^{-s^2} sum_{L>=1} ((2L+1) a_0 - a_L)
    j_L(beta s)^2, a sum of nonnegative terms, so F(0) = 0 exactly and small
    x loses nothing to cancellation. The speed integral uses about one
    period of cos(2 beta s) per panel, doubling until it settles.

    The bracket equals a_0 - sum_L a_L j_L(beta s)^2, and
    |sum_L a_L j_L(z)^2| <= sum_L |a_L| mu_L / z^2, where mu_L bounds the
    Riccati-Bessel maximum max_z (z j_L(z))^2. So the rate differs from the
    saturation rate by at most the fraction
    B / (beta^2 S), B = int ds s e^{-s^2} sum_L mu_L |a_L|,
    S = int ds s^3 e^{-s^2} a_0. Where that fraction is below _GL_RTOL the
    table's saturation rate is returned, which bounds the work at any x.
    """
    if x < 0:
        raise PhysicsError("separation must be nonnegative")
    beta = gas.m * gas.thermal_speed * x

    def integral(table):
        saturation = _saturation_integral(table)
        mu = _riccati_bessel_bound(table.moments.shape[1])
        bound = (table.weight / table.s**2) @ (np.abs(table.moments) @ mu)
        if bound <= _GL_RTOL * saturation * beta * beta:
            return saturation
        sub = max(1, math.ceil(_SPEED_CUT * beta / (math.pi * _PANEL_START)))
        return _bracket_integral(table, beta, sub)

    return _settled_rate(amp, gas, integral)


def momentum_gain_rate(amp: IsotropicAmplitude, gas: GasModel, q_grid):
    """Isotropic momentum-transfer density M_in(Q).

    The energy-shell constraint is eliminated analytically (the incoming
    momentum component along Q is pinned to Q/2), leaving a single radial
    integral over incoming momenta p0 = Q/2 + p_th u, u on the speed rule.
    Returns a callable with the supplied grid and its values attached as
    .grid / .grid_values; integrating M_in over all transfers recovers the
    total collision rate.
    """
    q_grid = np.asarray(q_grid, dtype=float)
    m, temp, n = gas.m, gas.temperature, gas.n_gas
    p_th = math.sqrt(2.0 * m * temp)
    mu_pref = (2.0 * math.pi * m * temp) ** -1.5

    def m_in(q: float) -> float:
        if q < 0:
            raise PhysicsError("momentum transfer must be nonnegative")
        if q == 0.0:
            return math.inf

        def weighted_terms(n_panels):
            u, w = _speed_rule(n_panels)
            p0 = 0.5 * q + p_th * u
            weight = 2.0 * math.pi * n * p_th / (m * q) * w * p0 \
                * mu_pref * np.exp(-p0 * p0 / (2.0 * m * temp))
            # no amplitude where the Maxwell weight underflows, so a huge
            # transfer never asks for a huge partial-wave cutoff
            live = weight > 0.0
            if not live.any():
                return weight
            coeffs = amp.coefficients(p0[live] ** 2 / (2.0 * m))
            vander = legvander(1.0 - q * q / (2.0 * p0[live] ** 2), coeffs.shape[1] - 1)
            return weight[live] * np.abs(np.sum(coeffs * vander, axis=1)) ** 2

        return float(_settled(weighted_terms))

    m_in.grid = q_grid
    m_in.grid_values = np.array([m_in(q) for q in q_grid])
    return m_in


@dataclass(frozen=True)
class ChannelSpec:
    """Internal levels of a fixed scatterer with their transition amplitudes.

    amplitudes maps (final, initial) channel index pairs to amplitudes;
    missing pairs scatter with amplitude zero.
    """

    energies: tuple
    amplitudes: dict

    def __post_init__(self):
        if len(self.energies) < 1:
            raise PhysicsError("need at least one channel")
        if any(isinstance(e, complex) for e in self.energies):
            raise PhysicsError("channel energies must be real")
        n = len(self.energies)
        for pair in self.amplitudes:
            a, b = pair
            if not (0 <= a < n and 0 <= b < n):
                raise DimensionError(f"amplitude key {pair} outside channel range")

    @property
    def n_channels(self) -> int:
        return len(self.energies)


@dataclass(frozen=True)
class RateTensor:
    """Complex rates M[final_pair, initial_pair] plus real channel shifts."""

    m: np.ndarray
    eps: np.ndarray

    def __post_init__(self):
        n = self.eps.size
        if self.m.shape != (n, n, n, n):
            raise DimensionError("rate tensor shape does not match channel count")
        diag = np.einsum("aabb->ab", self.m)
        if np.any(np.abs(diag.imag) > 1e-12) or np.any(diag.real < -1e-12):
            raise PhysicsError("population rates must be real and nonnegative")

    def loss_matrix(self) -> np.ndarray:
        return np.einsum("ggab->ab", self.m)


def energy_shifts(spec: ChannelSpec, gas: GasModel) -> np.ndarray:
    """Forward-scattering energy renormalization per channel:
    eps_a = -(2 pi n/m) <Re f_aa(forward)>, with f(forward) = sum_l c_l."""
    shifts = np.zeros(spec.n_channels)
    for alpha in range(spec.n_channels):
        amp = spec.amplitudes.get((alpha, alpha))
        if amp is not None:
            shifts[alpha] = -2.0 * math.pi * gas.n_gas / gas.m * _maxwell_average(
                gas, lambda energy, _: amp.coefficients(energy).sum(axis=1).real)
    return shifts


def _pair_rate(spec: ChannelSpec, gas: GasModel, alpha, beta, alpha0, beta0) -> complex:
    f_a = spec.amplitudes.get((alpha, alpha0))
    f_b = spec.amplitudes.get((beta, beta0))
    if f_a is None or f_b is None:
        return 0.0

    def per_speed(energy, v_out):
        return v_out * 2.0 * math.pi * _overlap(f_a.coefficients(energy),
                                                f_b.coefficients(energy))

    gap = spec.energies[alpha] - spec.energies[alpha0]
    return gas.n_gas * complex(_maxwell_average(gas, per_speed, gap))


def dot_rate_tensor(spec: ChannelSpec, gas: GasModel) -> RateTensor:
    """Complex scattering rates between channel pairs.

    The energy selection factor (zero unless both pairs exchange the same
    quantum) is enforced exactly; upward transitions integrate only over gas
    speeds above threshold. Hermiticity under swapping both pairs is built in
    by mirroring conjugate cells."""
    n = spec.n_channels
    energies = np.asarray(spec.energies, dtype=float)
    chi_tol = 1e-9 * max(1.0, float(np.max(np.abs(energies))))
    m = np.zeros((n, n, n, n), dtype=complex)
    for cell in itertools.product(range(n), repeat=4):
        alpha, beta, alpha0, beta0 = cell
        mirror = (beta, alpha, beta0, alpha0)
        if mirror < cell:
            m[cell] = np.conj(m[mirror])
            continue
        gap = (energies[alpha] - energies[alpha0]) - (energies[beta] - energies[beta0])
        if abs(gap) > chi_tol:
            continue
        rate = _pair_rate(spec, gas, *cell)
        # self-mirror cells integrate |f|^2, real up to complex multiply
        # roundoff; drop the residue so hermiticity and the reality of
        # population rates hold exactly
        m[cell] = rate.real if mirror == cell else rate
    return RateTensor(m=m, eps=energy_shifts(spec, gas))


def elastic_dephasing_rate(amp_a: IsotropicAmplitude, amp_b: IsotropicAmplitude,
                           gas: GasModel) -> float:
    """Coherence decay between two elastic channels:
    pi n <v int |f_a - f_b|^2 dcos> = 2 pi n <v sum_l |c_{a,l} - c_{b,l}|^2 / (2l+1)>.
    Vanishes only when the gas cannot distinguish the two channels."""

    def per_speed(energy, v):
        c_a, c_b = amp_a.coefficients(energy), amp_b.coefficients(energy)
        diff = np.zeros((energy.size, max(c_a.shape[1], c_b.shape[1])), dtype=complex)
        diff[:, :c_a.shape[1]] += c_a
        diff[:, :c_b.shape[1]] -= c_b
        return v * math.pi * _overlap(diff, diff).real

    return gas.n_gas * float(_maxwell_average(gas, per_speed))


def dot_master_rhs(rho, spec: ChannelSpec, gas: GasModel,
                   tensor: RateTensor | None = None) -> np.ndarray:
    """Channel-basis master equation right-hand side: shifted-energy rotation,
    rate-tensor gain, and the trace-compensating loss term."""
    rho = np.asarray(rho, dtype=complex)
    n = spec.n_channels
    if rho.shape != (n, n):
        raise DimensionError("state dimension does not match channel count")
    if tensor is None:
        tensor = dot_rate_tensor(spec, gas)
    h = np.diag(np.asarray(spec.energies, dtype=float) + tensor.eps)
    gain = np.einsum("abij,ij->ab", tensor.m, rho)
    loss = tensor.loss_matrix().T
    return -1j * (h @ rho - rho @ h) + gain - 0.5 * (loss @ rho + rho @ loss)
