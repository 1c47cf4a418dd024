import hashlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cascade_iv import exponents as xp
from cascade_iv._table import write_table
from cascade_iv.mse import (
    PacketStreamBoundary,
    SingleSampleBoundary,
    log_closed_form_streaming_grid,
    solve_grid,
)
from cascade_iv.params import (
    HopConvention,
    eta_factor,
    make_channel_params,
    make_stream_params,
)

CH10 = make_channel_params(10.0)
PBAR = 10.0 / 11.0


def _delta_star(channel, rate_nats):
    """The unconstrained minimizer eta/(1-eta) of e_tilde, 1 / stream_region_boundary."""
    return 1.0 / xp.stream_region_boundary(channel, rate_nats)


class TestDivergence:
    def test_divergence_zero_iff_equal(self):
        assert xp.kl_divergence(0.3, 0.3) == 0.0
        assert xp.kl_divergence(0.31, 0.3) > 0.0

    def test_divergence_endpoint_limits(self):
        assert xp.kl_divergence(0.0, 0.25) == pytest.approx(-math.log(0.75), rel=1e-15)
        assert xp.kl_divergence(1.0, 0.25) == pytest.approx(-math.log(0.25), rel=1e-15)

    @pytest.mark.parametrize("p,q", [(-0.1, 0.5), (1.1, 0.5), (0.5, 0.0), (0.5, 1.0)])
    def test_rejects_out_of_range(self, p, q):
        with pytest.raises(ValueError):
            xp.kl_divergence(p, q)

    @given(st.floats(0.0, 1.0), st.floats(1e-9, 1.0 - 1e-9))
    def test_nonnegative(self, p, q):
        d = xp.kl_divergence(p, q)
        assert d >= 0.0
        if abs(p - q) > 1e-6:
            assert d > 0.0


class TestE1:
    def test_zero_at_and_above_snr(self):
        assert xp.e1(CH10, 10.0) == 0.0
        assert xp.e1(CH10, 25.0) == 0.0

    def test_value_at_unit_velocity(self):
        # 2 d(1/2 || 10/11) = ln(121/40)
        assert xp.e1(CH10, 1.0) == pytest.approx(math.log(121.0 / 40.0), rel=1e-13)

    def test_small_velocity_limit(self):
        v = 1e-6
        lim = v * xp.e1(CH10, v)
        assert lim == pytest.approx(2.0 * CH10.capacity_nats, rel=1e-4)

    def test_nonincreasing_below_snr(self):
        grid = np.geomspace(0.01, 10.0, 200)
        vals = [xp.e1(CH10, v) for v in grid]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


class TestES:
    def test_equals_e1_at_junction(self):
        vb = xp.stream_region_boundary(CH10, 0.5)
        left = xp.es(CH10, 0.5, vb * (1 - 1e-13))
        right = xp.es(CH10, 0.5, vb * (1 + 1e-13))
        assert abs(left - right) <= 1e-9

    def test_equals_e1_for_rates_at_or_above_capacity(self):
        grid = np.geomspace(0.01, 12.0, 100)
        for v in grid:
            assert xp.es(CH10, 1.3, float(v)) == xp.e1(CH10, float(v))

    def test_first_region_value(self):
        # eta = e/11 at R = 0.5
        eta = math.exp(1.0) / 11.0
        v = 0.1
        oracle = xp.kl_divergence(1 - eta, PBAR) / (1 - eta) + 2 * 0.5 * (
            1 / v - eta / (1 - eta)
        )
        assert xp.es(CH10, 0.5, v) == pytest.approx(oracle, rel=1e-12)

    def test_small_velocity_rate_limit(self):
        v = 1e-6
        lim = v * xp.es(CH10, 0.5, v)
        assert lim == pytest.approx(2.0 * 0.5, rel=1e-4)

    def test_identical_to_e1_on_network_limited_region(self):
        vb = xp.stream_region_boundary(CH10, 0.5)
        for v in np.linspace(vb * (1 + 1e-12), 10.0, 50):
            assert xp.es(CH10, 0.5, float(v)) == xp.e1(CH10, float(v))

    def test_at_most_e1_and_nonincreasing(self):
        grid = np.geomspace(0.01, 10.0, 150)
        prev = None
        for v in grid:
            val = xp.es(CH10, 0.5, float(v))
            assert val <= xp.e1(CH10, float(v)) + 1e-12
            if prev is not None:
                assert val <= prev + 1e-12
            prev = val


class TestETildeAndE2:
    def test_value_at_zero(self):
        assert xp.e_tilde(CH10, 0.5, 0.0) == pytest.approx(-math.log(PBAR), rel=1e-13)

    def test_stationarity_of_delta_star(self):
        ds = _delta_star(CH10, 0.5)
        h = 1e-6
        deriv = (xp.e_tilde(CH10, 0.5, ds + h) - xp.e_tilde(CH10, 0.5, ds - h)) / (2 * h)
        assert abs(deriv) <= 1e-6

    def test_delta_star_formula(self):
        eta = math.exp(1.0) / 11.0
        assert _delta_star(CH10, 0.5) == pytest.approx(eta / (1 - eta), rel=1e-13)

    def test_delta_star_rejects_rate_above_capacity(self):
        with pytest.raises(xp.RateAboveCapacityError):
            _delta_star(CH10, 1.3)

    @given(
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.05, max_value=1.1),
    )
    @settings(max_examples=80)
    def test_convexity(self, d1, d2, rate):
        mid = 0.5 * (d1 + d2)
        lhs = xp.e_tilde(CH10, rate, mid)
        rhs = 0.5 * (xp.e_tilde(CH10, rate, d1) + xp.e_tilde(CH10, rate, d2))
        assert lhs <= rhs + 1e-10

    def _numeric_minimizer(self, rate, v):
        """Independent grid + golden-section search over (0, 1/v]."""
        edge = 1.0 / v
        grid = np.geomspace(1e-9, edge, 600)
        vals = [xp.e_tilde(CH10, rate, d) for d in grid]
        i = int(np.argmin(vals))
        a, b = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
        invphi = (math.sqrt(5) - 1) / 2
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        fc, fd = xp.e_tilde(CH10, rate, c), xp.e_tilde(CH10, rate, d)
        while b - a > 1e-12:
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = xp.e_tilde(CH10, rate, c)
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = xp.e_tilde(CH10, rate, d)
        return 0.5 * (a + b)

    def test_interior_minimizer_matches_delta_star(self):
        rate = 0.5
        v = 0.5 * xp.stream_region_boundary(CH10, rate)  # delta* interior
        dmin = self._numeric_minimizer(rate, v)
        assert dmin == pytest.approx(_delta_star(CH10, rate), abs=1e-8)

    def test_edge_minimizer_at_one_over_v(self):
        rate = 0.5
        v = 2.0 * xp.stream_region_boundary(CH10, rate)  # edge case
        dmin = self._numeric_minimizer(rate, v)
        assert dmin == pytest.approx(1.0 / v, rel=1e-6)

    def test_e2_equals_es_on_grid(self):
        for rate in (0.2, 0.5, 1.0, 1.3):
            for v in np.geomspace(0.01, 15.0, 100):
                assert xp.e2(CH10, rate, float(v)) == pytest.approx(
                    xp.es(CH10, rate, float(v)), abs=1e-9
                )

    def test_e2_at_most_e1(self):
        for v in np.geomspace(0.01, 15.0, 60):
            assert xp.e2(CH10, 0.5, float(v)) <= xp.e1(CH10, float(v)) + 1e-12


class TestProbabilityBounds:
    def test_chebyshev_examples(self):
        assert xp.packet_error_bound_chebyshev(0.01, 1) == pytest.approx(4.0 / 300.0, rel=1e-15)
        assert xp.packet_error_bound_chebyshev(0.0, 3) == 0.0
        assert xp.packet_error_bound_chebyshev(0.1, 2) == pytest.approx(0.5333333333333333, rel=1e-15)

    def test_chebyshev_clamps(self):
        assert xp.packet_error_bound_chebyshev(1.0, 4) == 1.0

    def test_gaussian_examples(self):
        assert xp.packet_error_bound_gaussian(0.01, 1) == pytest.approx(
            2.0 * math.exp(-37.5), rel=1e-12
        )
        assert xp.packet_error_bound_gaussian(3.0 / 8.0, 1) == pytest.approx(
            2.0 * math.exp(-1.0), rel=1e-12
        )
        assert xp.packet_error_bound_gaussian(1e9, 1) == 1.0
        assert xp.packet_error_bound_gaussian(0.0, 5) == 0.0

    def test_prefix_examples(self):
        assert xp.prefix_error_bound(0.03, 0) == pytest.approx(0.2, rel=1e-12)
        assert xp.prefix_error_bound(0.0, 4) == 0.0
        assert xp.prefix_error_bound(1e-6, 3) == pytest.approx(0.016 / math.sqrt(3.0), rel=1e-12)
        assert xp.prefix_error_bound(1e-6, 3) == pytest.approx(0.00924, abs=5e-6)

    def test_gaussian_dominated_by_chebyshev_in_small_mse_regime(self):
        for psi in (1, 2, 4, 8):
            cutoff = 3.0 * 2.0 ** (-2 * psi) / 8.0
            for mse in np.geomspace(cutoff * 1e-6, cutoff, 50):
                g = xp.packet_error_bound_gaussian(float(mse), psi)
                c = xp.packet_error_bound_chebyshev(float(mse), psi)
                assert g <= c + 1e-300

    def test_gaussian_exponent_examples(self):
        assert xp.gaussian_packet_exponent(3.0 / 8.0, 1) == 1.0
        assert xp.gaussian_packet_exponent(0.0, 2) == math.inf

    # zero, subnormal cells and cells of a lattice that has not underflowed
    MSE = st.one_of(st.just(0.0), st.floats(0.0, 2.2250738585072014e-308),
                    st.floats(1e-300, 1.0))

    @given(mse=MSE, psi=st.integers(1, 511), n=st.integers(0, 1023))
    @settings(max_examples=300)
    def test_bit_identical_to_the_power_of_two_expressions(self, mse, psi, n):
        """Each bound and q equal, by float.hex, the ``2.0 ** k * x`` forms they
        replaced wherever those returned (all of psi <= 511 and n <= 1023)."""
        cheb = _clamp01((2.0 ** (2 * psi)) * mse / 3.0)
        pref = _clamp01((2.0 / math.sqrt(3.0)) * (2.0**n) * math.sqrt(mse))
        if mse == 0.0:
            q, gauss = math.inf, 0.0  # the old q divided by zero
        else:
            q = 3.0 / (2.0 ** (2 * psi + 1) * mse)
            gauss = _clamp01(2.0 * math.exp(-q))
        assert xp.packet_error_bound_chebyshev(mse, psi).hex() == cheb.hex()
        assert xp.gaussian_packet_exponent(mse, psi).hex() == q.hex()
        assert xp.packet_error_bound_gaussian(mse, psi).hex() == gauss.hex()
        assert xp.prefix_error_bound(mse, n).hex() == pref.hex()

    @pytest.mark.parametrize("mse", [5e-324, 1e-300, 0.5, 1.0])
    def test_beyond_the_power_of_two_range(self, mse):
        """psi = 512 and n = 1024, the first where ``2.0 ** k`` raises, match
        50-digit references, clamped; q is 0 where 2^1025 mse overflows."""
        with pytest.raises(OverflowError):
            2.0 ** (2 * 512)
        with mpmath.workdps(50):
            m = mpmath.mpf(mse)
            q = 3 / (2**1025 * m)
            want = [min(1, 2**1024 * m / 3), min(1, 2 * mpmath.exp(-q)),
                    min(1, 2 / mpmath.sqrt(3) * 2**1024 * mpmath.sqrt(m))]
        got = [xp.packet_error_bound_chebyshev(mse, 512), xp.packet_error_bound_gaussian(mse, 512),
               xp.prefix_error_bound(mse, 1024)]
        assert got == pytest.approx([float(w) for w in want], rel=1e-15)
        if mse >= 0.5:
            assert got == [1.0, 1.0, 1.0]
            assert xp.gaussian_packet_exponent(mse, 512) == 0.0
        else:
            assert xp.gaussian_packet_exponent(mse, 512) == pytest.approx(float(q), rel=1e-15)

    def test_zero_mse_beyond_the_power_of_two_range(self):
        assert xp.packet_error_bound_chebyshev(0.0, 512) == 0.0
        assert xp.gaussian_packet_exponent(0.0, 512) == math.inf
        assert xp.packet_error_bound_gaussian(0.0, 512) == 0.0
        assert xp.prefix_error_bound(0.0, 1024) == 0.0

    def test_rejections(self):
        with pytest.raises(ValueError):
            xp.packet_error_bound_chebyshev(-0.1, 1)
        with pytest.raises(ValueError):
            xp.packet_error_bound_gaussian(0.1, 0)
        with pytest.raises(ValueError):
            xp.prefix_error_bound(-1e-9, 2)
        with pytest.raises(ValueError):
            xp.gaussian_packet_exponent(-1e-9, 2)


def _clamp01(x):
    return min(1.0, max(0.0, x))


def _mp_inputs(snr, rate, v):
    snr, rate, v = mpmath.mpf(snr), mpmath.mpf(rate), mpmath.mpf(v)
    pbar = snr / (1 + snr)
    return snr, rate, v, pbar, (1 - pbar) * mpmath.exp(2 * rate)


def _mp_kl(p, q):
    return p * mpmath.log(p / q) + (1 - p) * mpmath.log((1 - p) / (1 - q))


def _mp_envelope(snr, rate, v):
    """R + (v/2) ln((1-eta)/pbar) at 50 digits."""
    with mpmath.workdps(50):
        _, rate, v, pbar, eta = _mp_inputs(snr, rate, v)
        return rate + v / 2 * mpmath.log((1 - eta) / pbar)


def _mp_min_over_theta(snr, rate, v, n_grid=80):
    """min over theta of (v/2) E_S(v/(1+theta)) - theta R at 50 digits.

    E_S is evaluated from its three-region definition.  The theta grid is
    geometric on [1e-6, 1e12], plus theta = 0 and the first theta of the
    first region, max(0, v eta/(1-eta) - 1).
    """
    with mpmath.workdps(50):
        snr, rate, v, pbar, eta = _mp_inputs(snr, rate, v)
        edge = (1 - eta) / eta

        def e_s(w):
            if w <= edge:
                return _mp_kl(1 - eta, pbar) / (1 - eta) + 2 * rate * (1 / w - eta / (1 - eta))
            if w >= snr:
                return mpmath.mpf(0)
            wbar = w / (1 + w)
            return _mp_kl(wbar, pbar) / wbar

        thetas = [mpmath.mpf(0), max(mpmath.mpf(0), v * eta / (1 - eta) - 1)]
        thetas += [mpmath.mpf(10) ** (-6 + mpmath.mpf(18) * k / (n_grid - 1)) for k in range(n_grid)]
        return min(v / 2 * e_s(v / (1 + th)) - th * rate for th in thetas)


class TestStreamEnvelope:
    RATE = math.log(2.0)  # psi=2, T=2
    ETA = 4.0 / 11.0

    def test_theta_independent_in_first_region(self):
        v = 0.5
        vals = [
            0.5 * v * xp.es(CH10, self.RATE, v / (1 + th)) - th * self.RATE
            for th in (0.0, 0.7, 3.0, 50.0)
        ]
        assert max(vals) - min(vals) <= 1e-12

    def test_value_at_region_boundary(self):
        # at v = (1-eta)/eta the envelope equals d(1-eta || pbar) / (2 eta)
        v = (1 - self.ETA) / self.ETA
        expected = xp.kl_divergence(1 - self.ETA, PBAR) / (2 * self.ETA)
        assert xp.stream_envelope_exponent(CH10, self.RATE, v) == pytest.approx(
            expected, rel=1e-7
        )

    def test_exact_bound_exponent_converges_to_closed_form(self):
        # independent oracle: the per-delay exponent of the exact finite bound
        # sup_tau (2/sqrt3) 2^{(tau+1)psi} sqrt(M_r(tau T + Delta)), r = ceil(v Delta)
        psi, period = 2, 2
        v = 0.875
        closed = xp.stream_envelope_exponent(CH10, self.RATE, v)

        def empirical(delta):
            r = math.ceil(v * delta)
            t_max = 3 * delta + period
            li, lii = log_closed_form_streaming_grid(CH10, self.RATE, r, t_max)
            log_m = np.logaddexp(li, lii)[r]
            taus = np.arange(0, (t_max - delta) // period)
            lb = (
                math.log(2 / math.sqrt(3))
                + (taus + 1) * psi * math.log(2)
                + 0.5 * log_m[taus * period + delta]
            )
            return -lb.max() / delta

        gaps = [abs(empirical(d) - closed) for d in (300, 900, 1800)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 5e-3

    def test_negative_near_snr_is_vacuous_signal(self):
        val = xp.stream_envelope_exponent(CH10, self.RATE, 9.9)
        assert val < 0.0

    def test_rate_above_capacity_diverges(self):
        assert xp.stream_envelope_exponent(CH10, 1.3, 1.0) == -math.inf
        assert xp.stream_envelope_exponent(CH10, CH10.capacity_nats, 1.0) == -math.inf

    def test_velocity_domain(self):
        with pytest.raises(ValueError):
            xp.stream_envelope_exponent(CH10, self.RATE, 10.0)

    def test_rate_domain(self):
        with pytest.raises(ValueError):
            xp.stream_envelope_exponent(CH10, 0.0, 1.0)

    def test_near_capacity(self):
        # C - R is 1e-11 of C here; a theta search capped at 1e6 never
        # reaches the first region (theta >= v eta/(1-eta) - 1, about 3.9e9)
        # and overstates the exponent 55-fold.  The error left is the
        # rounding of C, half an ulp of which is 1e-5 of C - R.
        ch = make_channel_params(0.1)
        rate = (1.0 - 1e-11) * ch.capacity_nats
        v = 0.00375
        got = xp.stream_envelope_exponent(ch, rate, v)
        assert got == pytest.approx(float(_mp_envelope(0.1, rate, v)), rel=1e-4)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_infimum_matches_mpmath_brute_force(self, seed):
        # Library-free reference: the objective over a theta grid at 50
        # digits.  The envelope crosses zero where the bound turns vacuous,
        # so gaps are measured relative to the magnitudes of its two terms.
        rng = np.random.default_rng(seed)
        for i in range(100):
            snr = float(10.0 ** rng.uniform(-2.0, 3.0))
            ch = make_channel_params(snr)
            # half the points crowd capacity, down to R = 0.9999 C
            frac = 1.0 - 10.0 ** rng.uniform(-4.0, 0.0) if i % 2 else rng.uniform(1e-3, 0.9999)
            rate = float(frac) * ch.capacity_nats
            v = snr * float(10.0 ** rng.uniform(-3.0, 0.0))
            closed = xp.stream_envelope_exponent(ch, rate, v)
            ref = float(_mp_min_over_theta(snr, rate, v))
            scale = rate + abs(closed - rate)
            assert ref >= closed - 1e-12 * scale, (snr, rate, v)
            assert ref <= closed + 1e-12 * scale, (snr, rate, v)

    # sha256 of the float.hex values below, recorded when the theta search
    # was replaced by the closed form.
    PINNED_HEX = {
        0.1: "a8703dc9429aa62322ee0bc3995b3e307d0564405c3152c5db953ff36047b4b8",
        1.0: "db331880ae25a86915a39c16c1d08b551a5d2133d43ba88e69f5535592938b7f",
        10.0: "2fc4ee7383d8138c35788bb78cf3285db8141f691c1a2573cc2c95e390d5a4ea",
        100.0: "e4504bcb62cfbcfbdf4ca2021fd075c8c415f4592c53e14c6ef7fa26b6dc16b7",
    }

    @pytest.mark.parametrize("snr", sorted(PINNED_HEX))
    def test_bit_pins(self, snr):
        ch = make_channel_params(snr)
        hexes = []
        for frac in (0.1, 0.5, 0.9):
            rate = frac * ch.capacity_nats
            eta = (1.0 - ch.snr_bar) * math.exp(2.0 * rate)
            edge = (1.0 - eta) / eta
            # first region, its edge, the second region and near P
            for v in (0.5 * edge, edge, 0.5 * (edge + snr), 0.999 * snr):
                hexes.append(float.hex(xp.stream_envelope_exponent(ch, rate, v)))
        assert hashlib.sha256("\n".join(hexes).encode()).hexdigest() == self.PINNED_HEX[snr]


class TestWorstBitBound:
    def test_maximizes_over_packets(self):
        psi, period = 2, 2
        grid = solve_grid(CH10, PacketStreamBoundary(psi, period), 8, 20)
        per_tau = [
            xp.prefix_error_bound(grid.at(4, tau * period + 3), (tau + 1) * psi)
            for tau in range(0, (20 - 3) // period + 1)
        ]
        assert xp.worst_bit_error_bound(grid, psi, period, 4, 3, 8) == max(per_tau)
        assert xp.worst_bit_error_bound(grid, psi, period, 4, 3, 30) == max(per_tau)
        assert xp.worst_bit_error_bound(grid, psi, period, 4, 3, 2) == max(per_tau[:3])

    def test_no_observable_packet(self):
        grid = solve_grid(CH10, PacketStreamBoundary(2, 2), 4, 5)
        with pytest.raises(ValueError):
            xp.worst_bit_error_bound(grid, 2, 2, 4, 9, 8)


class TestIvBounds:
    def test_single_packet(self):
        assert xp.iv_lower_bound_single(CH10) == 10.0
        assert xp.iv_lower_bound_single(CH10, HopConvention.DELAYED) == CH10.snr_bar

    def test_stream_rate_to_zero_approaches_snr(self):
        assert xp.iv_lower_bound_stream(CH10, 1e-12) == pytest.approx(10.0, rel=1e-9)

    def test_stream_value(self):
        got = xp.iv_lower_bound_stream(CH10, 0.5)
        assert got == pytest.approx(math.expm1(2 * (CH10.capacity_nats - 0.5)), rel=1e-14)
        assert got == pytest.approx(3.0468, abs=2e-4)

    def test_stream_delayed_is_one_minus_eta(self):
        got = xp.iv_lower_bound_stream(CH10, 0.5, HopConvention.DELAYED)
        assert got == pytest.approx(1.0 - eta_factor(CH10, 0.5), rel=1e-14)
        assert got == pytest.approx(0.75289, abs=1e-5)

    def test_stream_rejects_rate_at_capacity(self):
        with pytest.raises(xp.RateAboveCapacityError):
            xp.iv_lower_bound_stream(CH10, CH10.capacity_nats)

    @pytest.mark.parametrize("snr,gap", [(10.0, None), (1000.0, 1e-9), (1000.0, 1e-6)])
    def test_consistency_with_stream_region_boundary(self, snr, gap):
        # gap = 1 - R/C; near capacity, forming eta first loses about (1+P) ulp
        # over 1 - eta (4.9e-6 relative at P=1000, 1-R/C=1e-9)
        ch = make_channel_params(snr)
        rate = 0.5 if gap is None else (1.0 - gap) * ch.capacity_nats
        vb = xp.stream_region_boundary(ch, rate)
        assert xp.iv_lower_bound_stream(ch, rate) == pytest.approx(vb, rel=1e-13)
        with mpmath.workdps(50):
            # exp(2(C-R)) - 1 at the channel's own capacity C, for the float rate
            want = mpmath.expm1(2 * (mpmath.mpf(ch.capacity_nats) - mpmath.mpf(rate)))
            assert abs(vb / want - 1) <= 1e-14
            assert abs(_delta_star(ch, rate) * want - 1) <= 1e-14


class TestCurves:
    def test_es_column_equals_e1_above_capacity(self):
        grid = np.geomspace(0.05, 10.0, 40)
        ce1 = xp.sample_exponent_curve("E1", CH10, grid)
        ces = xp.sample_exponent_curve("ES", CH10, grid, rate_nats=1.3)
        assert np.array_equal(ce1.values, ces.values)

    def test_delayed_convention_matches_translated_formula(self):
        # delayed w corresponds to instantaneous w/(1-w); at w = 1/2 that is v = 1
        curve = xp.sample_exponent_curve(
            "E1", CH10, [0.5], convention=HopConvention.DELAYED
        )
        assert curve.values[0] == pytest.approx(xp.e1(CH10, 1.0), rel=1e-12)

    def test_csv_schema(self, tmp_path):
        grid = np.geomspace(0.05, 5.0, 4)
        curves = [
            xp.sample_exponent_curve("E1", CH10, grid),
            xp.sample_exponent_curve("ES", CH10, grid, rate_nats=0.5),
        ]
        path = tmp_path / "curves.csv"
        write_table(path, "v,exponent,kind,convention", [
            np.concatenate([c.velocities for c in curves]),
            np.concatenate([c.values for c in curves]),
            [c.label for c in curves for _ in c.velocities],
            [c.convention.value for c in curves for _ in c.velocities],
        ])
        lines = path.read_text().splitlines()
        assert lines[0] == "v,exponent,kind,convention"
        assert len(lines) == 1 + 8
        assert lines[1].endswith(",E1,inst")
        assert ",ES(R=0.5)," in lines[5]

    def test_rate_required_for_es(self):
        with pytest.raises(ValueError):
            xp.sample_exponent_curve("ES", CH10, [1.0])

    @pytest.mark.parametrize("rate", [None, 0.5])
    def test_unknown_kind_on_an_empty_grid(self, rate):
        with pytest.raises(ValueError, match="unknown curve kind 'BOGUS'"):
            xp.sample_exponent_curve("BOGUS", CH10, [], rate_nats=rate)

    def test_per_time_normalization(self):
        grid = np.geomspace(1e-6, 1.0, 10)
        curve = xp.sample_exponent_curve("ES", CH10, grid, rate_nats=0.5)
        per_time = grid * curve.values  # exponents per time step, not per relay
        assert per_time[0] == pytest.approx(1.0, rel=1e-4)  # v*ES -> 2R

    def test_exponent_fit_approaches_e1(self):
        # -ln M_r(floor(r/v)) / r must close in on e1(v) as r grows
        from cascade_iv.mse import log_closed_form_single

        v = 1.0
        target = xp.e1(CH10, v)
        fits = [-log_closed_form_single(CH10, r, r) / r for r in (50, 150, 300)]
        gaps = [abs(f - target) for f in fits]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] / target < 0.10
