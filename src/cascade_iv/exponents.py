"""Error-exponent calculus and analytic error-probability bounds.

Exponents are measured per relay index along fixed-velocity trajectories
t = floor(r / v):

* ``e1``  single-sample MSE exponent: d(vbar || pbar) / vbar below P, 0 above.
* ``es``  refined-source MSE exponent, three regions joined at (1-eta)/eta and P.
* ``e2``  boundary-driven component 2R/v + inf_{delta in (0, 1/v]} e_tilde(delta);
          equals ``es`` everywhere (the interior minimizer is delta* = eta/(1-eta)).

Probability bounds take an exact lattice MSE and clamp to [0, 1]:

* packet (Chebyshev):       (1/3) * 2^(2 psi) * mse
* packet (sub-Gaussian):    2 * exp(-3 / (2^(2 psi + 1) * mse))
* n-bit prefix (dithered):  (2/sqrt 3) * 2^n * sqrt(mse)

``stream_envelope_exponent`` is the per-delay streaming envelope

    inf_{theta >= 0} [ (v/2) * E_S(v / (1+theta)) - theta * R ]
        = R + (v/2) * ln((1-eta) / pbar),        0 < v < P, eta < 1.

In u = (1+theta)/v the objective is (v/2) E_S(1/u) - R (v u - 1).  The
first-region branch of E_S is the tangent line of slope 2R, at
u = eta/(1-eta), to the convex second-region branch (1+u) d(1/(1+u) || pbar)
(a perspective); the branch pinned to 0 for u <= 1/P lies above that line
too.  The objective is therefore bounded below by its constant first-region
value v (d(1-eta||pbar)/2 - eta R)/(1-eta) + R, reached for every
theta >= v eta/(1-eta) - 1, and d(1-eta||pbar) = (1-eta) ln((1-eta)/pbar)
+ 2 eta R reduces that value to the line above.  ``stream`` writes it as
the ``envelope_exponent_per_delta`` column of ``stream_bounds.csv``.
For rates at or above capacity (eta >= 1) the infimum diverges and the
exponent is -inf.  ``worst_bit_error_bound`` is the exact finite-delay
counterpart built from the prefix bound, used to check Monte Carlo runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .params import ChannelParams, HopConvention, Velocity, eta_factor, translate_velocity

__all__ = [
    "RateAboveCapacityError",
    "kl_divergence",
    "e1",
    "es",
    "e_tilde",
    "e2",
    "stream_region_boundary",
    "packet_error_bound_chebyshev",
    "gaussian_packet_exponent",
    "packet_error_bound_gaussian",
    "prefix_error_bound",
    "stream_envelope_exponent",
    "worst_bit_error_bound",
    "iv_lower_bound_single",
    "iv_lower_bound_stream",
    "ExponentCurve",
    "sample_exponent_curve",
]


class RateAboveCapacityError(ValueError):
    """Raised where a quantity only exists for rates below capacity (eta < 1)."""


def _xlogy(x: float, y: float) -> float:
    return 0.0 if x == 0.0 else x * math.log(y)


def kl_divergence(p: float, q: float) -> float:
    """Binary divergence d(p || q) in nats; requires p in [0, 1], q in (0, 1)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q!r}")
    return _xlogy(p, p / q) + _xlogy(1.0 - p, (1.0 - p) / (1.0 - q))


def _check_velocity(v: float) -> None:
    if not math.isfinite(v) or v <= 0.0:
        raise ValueError(f"velocity must be positive and finite, got {v!r}")


def e1(channel: ChannelParams, v: float) -> float:
    """Single-sample MSE exponent at instantaneous velocity v."""
    _check_velocity(v)
    if v >= channel.snr:
        return 0.0
    vbar = v / (1.0 + v)
    return kl_divergence(vbar, channel.snr_bar) / vbar


def stream_region_boundary(channel: ChannelParams, rate_nats: float) -> float:
    """Velocity (1-eta)/eta = exp(2(C-R)) - 1 separating the boundary-limited and
    network-limited regions.

    Evaluated as ``expm1(2(C-R))`` by ``iv_lower_bound_stream``: forming eta
    first loses about (1+P) ulp of relative accuracy near capacity.
    """
    return iv_lower_bound_stream(channel, rate_nats)


def es(channel: ChannelParams, rate_nats: float, v: float) -> float:
    """Refined-source MSE exponent at rate R and instantaneous velocity v.

    For R >= capacity the first region is empty and es coincides with e1.
    """
    _check_velocity(v)
    if rate_nats <= 0.0:
        raise ValueError("rate_nats must be positive")
    eta = eta_factor(channel, rate_nats)
    if eta < 1.0 and v <= (1.0 - eta) / eta:
        return kl_divergence(1.0 - eta, channel.snr_bar) / (1.0 - eta) + 2.0 * rate_nats * (
            1.0 / v - eta / (1.0 - eta)
        )
    return e1(channel, v)


def e_tilde(channel: ChannelParams, rate_nats: float, delta: float) -> float:
    """Per-path exponent (1+delta) d(deltabar || 1-pbar) - 2 R delta, delta >= 0."""
    if delta < 0.0:
        raise ValueError("delta must be >= 0")
    dbar = delta / (1.0 + delta)
    return (1.0 + delta) * kl_divergence(dbar, channel.qbar) - 2.0 * rate_nats * delta


def e2(channel: ChannelParams, rate_nats: float, v: float) -> float:
    """Boundary-driven exponent 2R/v + inf_{delta in (0, 1/v]} e_tilde(delta).

    By convexity the infimum sits at delta* = eta/(1-eta) when delta* <= 1/v
    and at the edge 1/v otherwise, which reproduces es(v) on (0, P).  Above P
    the network term dominates with zero exponent, so e2 is pinned to 0 there
    to keep e2 == es everywhere.
    """
    _check_velocity(v)
    if rate_nats <= 0.0:
        raise ValueError("rate_nats must be positive")
    if v >= channel.snr:
        return 0.0
    eta = eta_factor(channel, rate_nats)
    edge = 1.0 / v
    if eta < 1.0 and eta / (1.0 - eta) <= edge:
        d_opt = eta / (1.0 - eta)
    else:
        d_opt = edge
    return 2.0 * rate_nats / v + e_tilde(channel, rate_nats, d_opt)


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def _scaled(x: float, k: int) -> float:
    """x * 2^k, exactly as ``2.0 ** k * x`` where that returns, and inf where it overflows."""
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return math.inf


def packet_error_bound_chebyshev(mse: float, packet_bits: int) -> float:
    """Chebyshev packet-error bound (1/3) 2^(2 psi) mse for any unit-variance noise."""
    if mse < 0.0 or packet_bits < 1:
        raise ValueError("need mse >= 0 and packet_bits >= 1")
    return _clamp01(_scaled(mse, 2 * packet_bits) / 3.0)


def gaussian_packet_exponent(mse: float, packet_bits: int) -> float:
    """Exponent q = 3 / (2^(2 psi + 1) mse) of the sub-Gaussian packet bound 2 exp(-q).

    +inf at mse = 0, and 0 where 2^(2 psi + 1) mse overflows (the bound is then 1).
    """
    if mse < 0.0 or packet_bits < 1:
        raise ValueError("need mse >= 0 and packet_bits >= 1")
    if mse == 0.0:
        return math.inf
    return 3.0 / _scaled(mse, 2 * packet_bits + 1)


def packet_error_bound_gaussian(mse: float, packet_bits: int) -> float:
    """Chernoff-Hoeffding packet-error bound 2 exp(-q) for (sub-)Gaussian noise,
    with q = ``gaussian_packet_exponent(mse, packet_bits)``."""
    return _clamp01(2.0 * math.exp(-gaussian_packet_exponent(mse, packet_bits)))


def prefix_error_bound(mse: float, n_bits: int) -> float:
    """Dithered-decoder bound (2/sqrt 3) 2^n sqrt(mse) on an n-bit prefix error.

    Holds uniformly in the total packet size; n counts the decoded bits.
    """
    if mse < 0.0 or n_bits < 0:
        raise ValueError("need mse >= 0 and n_bits >= 0")
    return _clamp01(_scaled((2.0 / math.sqrt(3.0)) * math.sqrt(mse), n_bits))


def stream_envelope_exponent(channel: ChannelParams, rate_nats: float, v: float) -> float:
    """Per-delay streaming error exponent R + (v/2) ln((1-eta)/pbar), for 0 < v < P.

    This is the infimum over theta >= 0 of (v/2) E_S(v/(1+theta)) - theta R,
    attained for every theta >= v eta/(1-eta) - 1.  It may be negative (the
    bound is then vacuous at this velocity); for rates at or above capacity
    the infimum diverges and -inf is returned.

    1 - eta is taken as -expm1(2 (R - C)): forming eta first loses about
    (1+P) ulp / (1-eta) of relative accuracy near capacity.
    """
    if not 0.0 < v < channel.snr:
        raise ValueError(f"envelope defined for 0 < v < P, got v={v!r}")
    if rate_nats <= 0.0:
        raise ValueError("rate_nats must be positive")
    log_eta = 2.0 * (rate_nats - channel.capacity_nats)
    if log_eta >= 0.0:
        return -math.inf
    return rate_nats + 0.5 * v * math.log(-math.expm1(log_eta) / channel.snr_bar)


def worst_bit_error_bound(grid, packet_bits: int, period: int, r: int, delta: int,
                          tau_max: int) -> float:
    """Exact finite-delay bound on the worst-bit error P_e(r, delta).

    Maximizes, over packet indices tau <= tau_max with tau*period + delta
    inside the grid, the clamped (tau+1)*psi-bit prefix bound evaluated on
    the exact lattice MSE.  ``grid`` must expose ``at(r, t)`` and ``t_max``.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    taus = range(0, min(tau_max + 1, (grid.t_max - delta) // period + 1))
    best = None
    for tau in taus:
        t = tau * period + delta
        b = prefix_error_bound(grid.at(r, t), (tau + 1) * packet_bits)
        best = b if best is None else max(best, b)
    if best is None:
        raise ValueError("no packet observable at this delay inside the grid")
    return best


def iv_lower_bound_single(
    channel: ChannelParams, convention: HopConvention = HopConvention.INSTANTANEOUS
) -> float:
    """Single-packet information-velocity lower bound: P, or pbar for delayed hops."""
    v = Velocity(channel.snr, HopConvention.INSTANTANEOUS)
    return translate_velocity(v, convention).value


def iv_lower_bound_stream(
    channel: ChannelParams,
    rate_nats: float,
    convention: HopConvention = HopConvention.INSTANTANEOUS,
) -> float:
    """Streaming IV lower bound exp(2(C-R)) - 1, or its delayed translation 1 - eta."""
    if rate_nats < 0.0:
        raise ValueError("rate_nats must be >= 0")
    gap = channel.capacity_nats - rate_nats
    if gap <= 0.0:
        raise RateAboveCapacityError(
            f"no positive streaming IV bound at rate {rate_nats} >= capacity"
        )
    v = Velocity(math.expm1(2.0 * gap), HopConvention.INSTANTANEOUS)
    return translate_velocity(v, convention).value


@dataclass(frozen=True, eq=False)
class ExponentCurve:
    """Exponent function sampled on a velocity grid under one hop convention."""

    kind: str  # "E1", "ES", or "STREAM_ENVELOPE"
    channel: ChannelParams
    convention: HopConvention
    rate_nats: float | None
    velocities: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    @property
    def label(self) -> str:
        if self.rate_nats is None:
            return self.kind
        return f"{self.kind}(R={self.rate_nats!r})"


# evaluator(channel, rate_nats, v) of each curve kind
_CURVES = {
    "E1": lambda channel, rate_nats, v: e1(channel, v),
    "ES": es,
    "STREAM_ENVELOPE": stream_envelope_exponent,
}


def sample_exponent_curve(
    kind: str,
    channel: ChannelParams,
    velocities,
    rate_nats: float | None = None,
    convention: HopConvention = HopConvention.INSTANTANEOUS,
) -> ExponentCurve:
    """Sample E1, ES, or the streaming envelope on a caller-provided velocity grid.

    Delayed-convention grids are translated point by point to instantaneous
    velocities before evaluation.
    """
    if kind not in _CURVES:
        raise ValueError(f"unknown curve kind {kind!r}")
    evaluate = _CURVES[kind]
    velocities = np.asarray(velocities, dtype=float)
    if kind != "E1" and rate_nats is None:
        raise ValueError(f"{kind} requires rate_nats")
    vals = np.empty_like(velocities)
    for i, w in enumerate(velocities):
        vel = Velocity(float(w), convention)
        v_inst = translate_velocity(vel, HopConvention.INSTANTANEOUS).value
        vals[i] = evaluate(channel, rate_nats, v_inst)
    return ExponentCurve(
        kind=kind,
        channel=channel,
        convention=convention,
        rate_nats=rate_nats,
        velocities=velocities,
        values=vals,
    )
