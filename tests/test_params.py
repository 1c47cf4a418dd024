import math
import sys

import pytest
from hypothesis import given, strategies as st

from cascade_iv.params import (
    HopConvention,
    Velocity,
    eta_factor,
    make_channel_params,
    make_stream_params,
    translate_velocity,
)


class TestChannelParams:
    def test_capacity_at_snr_10(self):
        ch = make_channel_params(10.0)
        assert ch.capacity_nats == pytest.approx(0.5 * math.log(11.0), rel=1e-15)
        assert round(ch.capacity_nats, 1) == 1.2

    def test_snr_bar_exact(self):
        ch = make_channel_params(10.0)
        assert ch.snr_bar == 10.0 / 11.0

    def test_capacity_at_snr_1(self):
        ch = make_channel_params(1.0)
        assert ch.capacity_nats == pytest.approx(0.34657359027997264, rel=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_snr(self, bad):
        with pytest.raises(ValueError):
            make_channel_params(bad)

    @given(st.floats(min_value=1e-9, max_value=1e9))
    def test_derived_ranges(self, snr):
        ch = make_channel_params(snr)
        assert 0.0 < ch.snr_bar < 1.0
        assert ch.capacity_nats > 0.0


class TestDerivedConstants:
    """1 - snr_bar and the logs of snr_bar and 1 - snr_bar, formed in ``make_channel_params``."""

    @pytest.mark.parametrize("snr", [0.1, 0.3, 1.0, 10.0, 1e3, 1e6])
    def test_bit_for_bit(self, snr):
        ch = make_channel_params(snr)
        assert ch.qbar.hex() == (1.0 - ch.snr_bar).hex()
        assert ch.log_pbar.hex() == math.log(ch.snr_bar).hex()
        assert ch.log_qbar.hex() == math.log1p(-ch.snr_bar).hex()

    def test_repr_unchanged(self):
        # the Monte Carlo aggregate digests hash repr(channel); ROADMAP item 14
        # updates this pin on purpose
        assert repr(make_channel_params(10.0)) == (
            "ChannelParams(snr=10.0, snr_bar=0.9090909090909091, "
            "capacity_nats=1.1989476363991853)"
        )


class TestStreamParams:
    def test_rate_four_bits_every_four_steps(self):
        ch = make_channel_params(10.0)
        sp = make_stream_params(4, 4, ch)
        assert sp.rate_nats == pytest.approx(math.log(2.0), rel=1e-15)

    def test_eta_example(self):
        # eta = (1/11) e^{2 ln 2} = 4/11
        ch = make_channel_params(10.0)
        sp = make_stream_params(4, 4, ch)
        assert sp.eta == pytest.approx(4.0 / 11.0, rel=1e-14)
        assert sp.below_capacity

    def test_eta_is_inf_once_exp_2r_overflows(self):
        # ln of the largest double is 709.78...; exp of it is finite, exp of
        # the next double up overflows
        ch = make_channel_params(10.0)
        edge = math.log(sys.float_info.max) / 2.0
        assert math.isfinite(eta_factor(ch, edge))
        assert eta_factor(ch, math.nextafter(edge, math.inf)) == math.inf
        assert eta_factor(ch, 400.0) == math.inf

    def test_stream_rate_beyond_exp_range_is_above_capacity(self):
        # 1100 bits every 2 steps is 381 nats per step
        sp = make_stream_params(1100, 2, make_channel_params(10.0))
        assert sp.eta == math.inf and not sp.below_capacity

    def test_zero_rate_eta(self):
        ch = make_channel_params(10.0)
        assert eta_factor(ch, 0.0) == 1.0 - ch.snr_bar

    def test_rate_at_or_above_capacity_flagged_not_rejected(self):
        # 2 bits per step is 1.386 nats, above C = 1.199 nats at SNR 10
        ch = make_channel_params(10.0)
        sp = make_stream_params(2, 1, ch)
        assert sp.eta >= 1.0
        assert not sp.below_capacity

    @pytest.mark.parametrize("psi,period", [(0, 4), (4, 0), (-1, 2), (2, -1)])
    def test_rejects_bad_packets(self, psi, period):
        ch = make_channel_params(1.0)
        with pytest.raises(ValueError):
            make_stream_params(psi, period, ch)

    @pytest.mark.parametrize("snr", [0.1, 1.0, 10.0, 100.0])
    @pytest.mark.parametrize("scale", [0.25, 0.5, 0.9, 0.999, 1.001, 1.5])
    def test_eta_below_one_iff_rate_below_capacity(self, snr, scale):
        ch = make_channel_params(snr)
        rate = scale * ch.capacity_nats
        assert (eta_factor(ch, rate) < 1.0) == (rate < ch.capacity_nats)


class TestVelocity:
    def test_instantaneous_snr_maps_to_snr_bar(self):
        ch = make_channel_params(10.0)
        v = Velocity(ch.snr, HopConvention.INSTANTANEOUS)
        assert translate_velocity(v, HopConvention.DELAYED).value == ch.snr_bar

    def test_three_maps_to_three_quarters(self):
        v = Velocity(3.0)
        assert translate_velocity(v, HopConvention.DELAYED).value == 0.75

    def test_near_zero_is_near_fixed_point(self):
        v = Velocity(1e-12)
        w = translate_velocity(v, HopConvention.DELAYED)
        assert w.value == pytest.approx(1e-12, rel=1e-9)

    def test_same_convention_is_identity(self):
        v = Velocity(2.5)
        assert translate_velocity(v, HopConvention.INSTANTANEOUS) is v

    def test_delayed_at_least_one_rejected(self):
        with pytest.raises(ValueError):
            Velocity(1.0, HopConvention.DELAYED)

    @pytest.mark.parametrize("bad", [0.0, -2.0, math.inf, math.nan])
    def test_bad_values_rejected(self, bad):
        with pytest.raises(ValueError):
            Velocity(bad)

    @given(st.floats(min_value=1e-6, max_value=10.0))
    def test_round_trip_involution(self, value):
        v = Velocity(value)
        w = translate_velocity(v, HopConvention.DELAYED)
        back = translate_velocity(w, HopConvention.INSTANTANEOUS)
        assert back.value == pytest.approx(value, rel=1e-14)
        assert back.convention is HopConvention.INSTANTANEOUS

    @given(st.floats(min_value=10.0, max_value=1e6))
    def test_round_trip_large_velocities_ulp_scale(self, value):
        # the back map w/(1-w) has condition number 1+v, so the budget scales
        v = Velocity(value)
        back = translate_velocity(
            translate_velocity(v, HopConvention.DELAYED), HopConvention.INSTANTANEOUS
        )
        eps = 2.220446049250313e-16
        assert abs(back.value - value) / value <= 4.0 * eps * (1.0 + value)
