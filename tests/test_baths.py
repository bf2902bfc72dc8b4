import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pseudomode import (
    Flat,
    Lorentzian,
    correlation_function,
    markovian_rate,
    spectral_density_eval,
    verify_fourier_pair,
)

finite_taus = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


class TestSpectralDensity:
    def test_lorentzian_peak_value(self):
        sd = Lorentzian(g=1.0, omega0=0.0, gamma=2.0)
        assert spectral_density_eval(sd, 0.0) == pytest.approx(2.0)

    def test_half_width_at_half_maximum(self):
        sd = Lorentzian(g=1.0, omega0=0.0, gamma=2.0)
        for omega in (-1.0, 1.0):
            assert spectral_density_eval(sd, omega) == pytest.approx(1.0)

    def test_flat_is_constant(self):
        sd = Flat(f2=0.3)
        for omega in (-100.0, 0.0, 17.5):
            assert spectral_density_eval(sd, omega) == pytest.approx(0.3)

    def test_symmetric_about_center(self):
        sd = Lorentzian(g=0.7, omega0=3.0, gamma=1.5)
        offs = np.linspace(0.1, 20.0, 50)
        assert np.allclose(spectral_density_eval(sd, 3.0 + offs),
                           spectral_density_eval(sd, 3.0 - offs))

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            Lorentzian(g=1.0, omega0=0.0, gamma=0.0)
        with pytest.raises(ValueError):
            Flat(f2=-0.1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["g", "omega0", "gamma"])
    def test_lorentzian_rejects_non_finite(self, field, bad):
        params = {"g": 1.0, "omega0": 0.0, "gamma": 1.0, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            Lorentzian(**params)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_flat_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Flat(f2=bad)


class TestCorrelationFunction:
    def test_zero_delay_gives_total_weight(self):
        sd = Lorentzian(g=1.3, omega0=2.0, gamma=0.5)
        assert correlation_function(sd, 0.0) == pytest.approx(1.3**2)

    def test_resonant_value_at_unit_delay(self):
        sd = Lorentzian(g=1.0, omega0=0.0, gamma=2.0)
        val = correlation_function(sd, 1.0)
        assert val.imag == 0.0
        assert val.real == pytest.approx(np.exp(-1.0))

    def test_magnitude_and_phase(self):
        sd = Lorentzian(g=0.8, omega0=4.0, gamma=1.2)
        tau = 2.7
        val = correlation_function(sd, tau)
        assert abs(val) == pytest.approx(0.8**2 * np.exp(-1.2 * tau / 2))
        assert np.angle(val) == pytest.approx(np.angle(np.exp(-1j * 4.0 * tau)))

    def test_flat_input_points_to_markovian_rate(self):
        with pytest.raises(ValueError, match="markovian_rate"):
            correlation_function(Flat(f2=1.0), 0.5)

    @given(finite_taus, st.integers(min_value=0, max_value=2**31))
    def test_hermitian_symmetry(self, tau, seed):
        rng = np.random.default_rng(seed)
        sd = Lorentzian(g=rng.uniform(0.1, 2.0), omega0=rng.uniform(-5, 5),
                        gamma=rng.uniform(0.1, 3.0))
        assert correlation_function(sd, -tau) == pytest.approx(
            np.conj(correlation_function(sd, tau)), abs=1e-12
        )


class TestMarkovianRate:
    def test_flat_rate(self):
        assert markovian_rate(Flat(f2=1.7), omega_system=123.0) == pytest.approx(1.7)

    def test_on_resonance_peak(self):
        sd = Lorentzian(g=0.1, omega0=5.0, gamma=10.0)
        assert markovian_rate(sd, 5.0) == pytest.approx(4 * 0.1**2 / 10.0)

    def test_far_detuned_suppression(self):
        sd = Lorentzian(g=1.0, omega0=0.0, gamma=1.0)
        peak = markovian_rate(sd, 0.0)
        assert markovian_rate(sd, 10.0) == pytest.approx(peak / 401.0)


class TestFourierPair:
    SD = Lorentzian(g=1.0, omega0=0.0, gamma=1.0)

    def test_positive_delay_grid_meets_tail_budget(self):
        taus = np.linspace(0.5, 4.0, 36)
        assert verify_fourier_pair(self.SD, taus) < 1e-3

    def test_residual_with_zero_delay_is_tail_dominated(self):
        # truncated tails carry ~ g^2*gamma/(pi*W) = 8e-3 at the default window
        taus = np.linspace(0.0, 4.0, 41)
        res = verify_fourier_pair(self.SD, taus)
        assert 5e-3 < res < 1e-2

    def test_doubling_window_halves_zero_delay_residual(self):
        taus = np.linspace(0.0, 4.0, 41)
        r1 = verify_fourier_pair(self.SD, taus)
        r2 = verify_fourier_pair(self.SD, taus, omega_half_width=80.0)
        assert r2 <= 0.55 * r1

    def test_zero_delay_weight_within_two_percent(self):
        res = verify_fourier_pair(self.SD, [0.0])
        assert res / self.SD.g**2 < 0.02

    def test_total_weight_matches_zero_delay_correlation(self):
        sd = Lorentzian(g=1.4, omega0=2.0, gamma=0.8)
        omegas = np.linspace(sd.omega0 - 40 * sd.gamma, sd.omega0 + 40 * sd.gamma, 20001)
        weight = np.trapezoid(spectral_density_eval(sd, omegas), omegas) / (2 * np.pi)
        alpha0 = correlation_function(sd, 0.0).real
        tail_bound = sd.g**2 * sd.gamma / (np.pi * 40 * sd.gamma)
        assert abs(weight - alpha0) < 1.1 * tail_bound

    def test_wide_line_integral_equals_flat_rate(self):
        # fixed peak 4g^2/gamma = 1 while the line broadens
        peak = 1.0
        for gamma in (10.0, 100.0):
            g = np.sqrt(peak * gamma / 4.0)
            sd = Lorentzian(g=g, omega0=0.0, gamma=gamma)
            taus = np.linspace(0.0, 80.0 / gamma, 4001)
            integral = 2.0 * np.trapezoid(correlation_function(sd, taus).real, taus)
            assert integral == pytest.approx(markovian_rate(Flat(f2=peak), 0.0), rel=1e-4)

    def test_flat_rejected(self):
        with pytest.raises(TypeError):
            verify_fourier_pair(Flat(f2=1.0), [0.0, 1.0])
