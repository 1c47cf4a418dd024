"""Scalar channel, source, and velocity parameters.

Every hop of the line network is an additive noise channel with the same
linear SNR ``P`` and unit noise variance.  All derived quantities are computed
once from ``P`` and cached on immutable value objects:

* ``snr_bar``       P / (1 + P), the one-step LMMSE contraction factor
* ``capacity_nats`` 0.5 * ln(1 + P)
* ``qbar``, ``log_pbar``, ``log_qbar``  1 - snr_bar, ln snr_bar and ln(1 - snr_bar),
  formed here only and left out of ``repr``
* ``eta``           (1 - snr_bar) * exp(2 R) at rate R (``eta_factor``), < 1 iff R < C

Rates are handled internally in nats; bit-denominated inputs (packet sizes)
are converted at the boundary via ln 2.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum

LN2 = math.log(2.0)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)

__all__ = [
    "LN2",
    "ChannelParams",
    "StreamParams",
    "HopConvention",
    "Velocity",
    "make_channel_params",
    "make_stream_params",
    "eta_factor",
    "translate_velocity",
]


class HopConvention(Enum):
    """Whether a relay may use its current-time input or only strictly past ones.

    Velocities translate between the two conventions through the bijection
    v -> v / (1 + v) from (0, inf) onto (0, 1).
    """

    INSTANTANEOUS = "inst"
    DELAYED = "delayed"


@dataclass(frozen=True)
class ChannelParams:
    """Per-hop SNR and the quantities derived from it."""

    snr: float
    snr_bar: float
    capacity_nats: float
    qbar: float = field(repr=False)
    log_pbar: float = field(repr=False)
    log_qbar: float = field(repr=False)


def make_channel_params(snr: float) -> ChannelParams:
    """Build ChannelParams from a linear SNR ``P > 0``."""
    snr = float(snr)
    if not math.isfinite(snr) or snr <= 0.0:
        raise ValueError(f"snr must be positive and finite, got {snr!r}")
    snr_bar = snr / (1.0 + snr)
    return ChannelParams(
        snr=snr,
        snr_bar=snr_bar,
        capacity_nats=0.5 * math.log1p(snr),
        qbar=1.0 - snr_bar,
        log_pbar=math.log(snr_bar),
        log_qbar=math.log1p(-snr_bar),
    )


def eta_factor(channel: ChannelParams, rate_nats: float) -> float:
    """eta = (1 - snr_bar) * exp(2 R); eta < 1 iff the rate is below capacity.

    A rate whose exp(2 R) overflows float64 is above the capacity of every
    channel (C < 354.9 nats at any finite SNR): eta is then ``math.inf``.
    """
    if 2.0 * rate_nats > _LOG_FLOAT_MAX:
        return math.inf
    return channel.qbar * math.exp(2.0 * rate_nats)


@dataclass(frozen=True)
class StreamParams:
    """Packet-arrival process: ``packet_bits`` bits every ``period`` steps.

    ``rate_nats`` is the average rate packet_bits * ln2 / period and ``eta``
    the derived factor (1 - snr_bar) * exp(2 * rate_nats).  Rates at or above
    capacity are allowed (eta >= 1) and flagged via ``below_capacity``.
    """

    packet_bits: int
    period: int
    rate_nats: float
    eta: float

    @property
    def below_capacity(self) -> bool:
        return self.eta < 1.0


def make_stream_params(packet_bits: int, period: int, channel: ChannelParams) -> StreamParams:
    """Stream parameters for ``packet_bits >= 1`` bits arriving every ``period >= 1`` steps."""
    if int(packet_bits) != packet_bits or packet_bits < 1:
        raise ValueError(f"packet_bits must be an integer >= 1, got {packet_bits!r}")
    if int(period) != period or period < 1:
        raise ValueError(f"period must be an integer >= 1, got {period!r}")
    rate = packet_bits * LN2 / period
    return StreamParams(
        packet_bits=int(packet_bits),
        period=int(period),
        rate_nats=rate,
        eta=eta_factor(channel, rate),
    )


@dataclass(frozen=True)
class Velocity:
    """Propagation speed in relays per time step, under a hop convention."""

    value: float
    convention: HopConvention = HopConvention.INSTANTANEOUS

    def __post_init__(self) -> None:
        if not math.isfinite(self.value) or self.value <= 0.0:
            raise ValueError(f"velocity must be positive and finite, got {self.value!r}")
        if self.convention is HopConvention.DELAYED and self.value >= 1.0:
            raise ValueError(
                f"delayed-hop velocities must be < 1, got {self.value!r}"
            )


def translate_velocity(v: Velocity, target: HopConvention) -> Velocity:
    """Translate a velocity between hop conventions.

    Instantaneous v maps to delayed v/(1+v); delayed w maps back to w/(1-w).
    The round trip is the identity up to floating-point rounding.
    """
    if v.convention is target:
        return v
    if target is HopConvention.DELAYED:
        return Velocity(v.value / (1.0 + v.value), HopConvention.DELAYED)
    return Velocity(v.value / (1.0 - v.value), HopConvention.INSTANTANEOUS)
