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

``stream_envelope_exponent`` evaluates the per-delay streaming envelope

    inf_{theta >= 0} [ (v/2) * E_S(v / (1+theta)) - theta * R ],

whose first-region value v * (d(1-eta||pbar)/2 - eta R) / (1-eta) + R is
independent of theta.  ``worst_bit_error_bound`` is the exact finite-delay
counterpart built from the prefix bound, used to check Monte Carlo runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .params import ChannelParams, HopConvention, Velocity, translate_velocity

__all__ = [
    "RateAboveCapacityError",
    "binary_entropy",
    "kl_divergence",
    "e1",
    "es",
    "e_tilde",
    "delta_star",
    "e2",
    "stream_region_boundary",
    "packet_error_bound_chebyshev",
    "packet_error_bound_gaussian",
    "prefix_error_bound",
    "stream_envelope_exponent",
    "stream_envelope_closed_form",
    "worst_bit_error_bound",
    "iv_lower_bound_single",
    "iv_lower_bound_stream",
    "ExponentCurve",
    "sample_exponent_curve",
    "write_curve_csv",
]


class RateAboveCapacityError(ValueError):
    """Raised where a quantity only exists for rates below capacity (eta < 1)."""


def _xlogy(x: float, y: float) -> float:
    return 0.0 if x == 0.0 else x * math.log(y)


def binary_entropy(p: float) -> float:
    """h(p) in nats, with the 0 log 0 = 0 convention at p in {0, 1}."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    return -_xlogy(p, p) - _xlogy(1.0 - p, 1.0 - p)


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
    """Velocity (1-eta)/eta separating the boundary-limited and network-limited regions."""
    eta = (1.0 - channel.snr_bar) * math.exp(2.0 * rate_nats)
    if eta >= 1.0:
        raise RateAboveCapacityError(f"rate {rate_nats} >= capacity; eta = {eta} >= 1")
    return (1.0 - eta) / eta


def es(channel: ChannelParams, rate_nats: float, v: float) -> float:
    """Refined-source MSE exponent at rate R and instantaneous velocity v.

    For R >= capacity the first region is empty and es coincides with e1.
    """
    _check_velocity(v)
    if rate_nats <= 0.0:
        raise ValueError("rate_nats must be positive")
    eta = (1.0 - channel.snr_bar) * math.exp(2.0 * rate_nats)
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
    return (1.0 + delta) * kl_divergence(dbar, 1.0 - channel.snr_bar) - 2.0 * rate_nats * delta


def delta_star(channel: ChannelParams, rate_nats: float) -> float:
    """Unconstrained minimizer eta/(1-eta) of e_tilde; only exists for eta < 1."""
    eta = (1.0 - channel.snr_bar) * math.exp(2.0 * rate_nats)
    if eta >= 1.0:
        raise RateAboveCapacityError(
            f"delta* undefined for rate {rate_nats} >= capacity (eta = {eta})"
        )
    return eta / (1.0 - eta)


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
    eta = (1.0 - channel.snr_bar) * math.exp(2.0 * rate_nats)
    edge = 1.0 / v
    if eta < 1.0 and eta / (1.0 - eta) <= edge:
        d_opt = eta / (1.0 - eta)
    else:
        d_opt = edge
    return 2.0 * rate_nats / v + e_tilde(channel, rate_nats, d_opt)


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def packet_error_bound_chebyshev(mse: float, packet_bits: int, clamp: bool = True) -> float:
    """Chebyshev packet-error bound (1/3) 2^(2 psi) mse for any unit-variance noise."""
    if mse < 0.0 or packet_bits < 1:
        raise ValueError("need mse >= 0 and packet_bits >= 1")
    raw = (2.0 ** (2 * packet_bits)) * mse / 3.0
    return _clamp01(raw) if clamp else raw


def packet_error_bound_gaussian(mse: float, packet_bits: int, clamp: bool = True) -> float:
    """Chernoff-Hoeffding packet-error bound 2 exp(-3 / (2^(2 psi + 1) mse)) for (sub-)Gaussian noise."""
    if mse < 0.0 or packet_bits < 1:
        raise ValueError("need mse >= 0 and packet_bits >= 1")
    if mse == 0.0:
        return 0.0
    raw = 2.0 * math.exp(-3.0 / (2.0 ** (2 * packet_bits + 1) * mse))
    return _clamp01(raw) if clamp else raw


def prefix_error_bound(mse: float, n_bits: int, clamp: bool = True) -> float:
    """Dithered-decoder bound (2/sqrt 3) 2^n sqrt(mse) on an n-bit prefix error.

    Holds uniformly in the total packet size; n counts the decoded bits.
    """
    if mse < 0.0 or n_bits < 0:
        raise ValueError("need mse >= 0 and n_bits >= 0")
    raw = (2.0 / math.sqrt(3.0)) * (2.0**n_bits) * math.sqrt(mse)
    return _clamp01(raw) if clamp else raw


def stream_envelope_closed_form(channel: ChannelParams, rate_nats: float, v: float) -> float:
    """First-region envelope value v (d(1-eta||pbar)/2 - eta R)/(1-eta) + R.

    Valid for v <= (1-eta)/eta, where the objective is independent of theta.
    """
    _check_velocity(v)
    eta = (1.0 - channel.snr_bar) * math.exp(2.0 * rate_nats)
    if eta >= 1.0:
        raise RateAboveCapacityError("closed form requires rate below capacity")
    if v > (1.0 - eta) / eta * (1.0 + 1e-9):
        raise ValueError(f"closed form only valid for v <= {(1.0 - eta) / eta}")
    d = kl_divergence(1.0 - eta, channel.snr_bar)
    return v * (0.5 * d - eta * rate_nats) / (1.0 - eta) + rate_nats


def stream_envelope_exponent(
    channel: ChannelParams,
    rate_nats: float,
    v: float,
    theta_grid_size: int = 512,
    theta_span: tuple[float, float] = (1e-6, 1e6),
    tol: float = 1e-10,
) -> float:
    """Per-delay streaming error exponent inf_theta [(v/2) E_S(v/(1+theta)) - theta R].

    A geometric theta grid is refined by golden-section search in log-theta.
    The returned infimum may be negative (the bound is then vacuous at this
    velocity); for rates at or above capacity the infimum diverges and -inf
    is returned.
    """
    _check_velocity(v)
    if not 0.0 < v < channel.snr:
        raise ValueError(f"envelope defined for 0 < v < P, got v={v!r}")
    if rate_nats <= 0.0:
        raise ValueError("rate_nats must be positive")
    pbar = channel.snr_bar
    eta = (1.0 - pbar) * math.exp(2.0 * rate_nats)
    if eta >= 1.0:
        return -math.inf
    # es(channel, rate_nats, w) with its theta-independent terms hoisted; every
    # remaining operation runs in the order es and e1 use, so values are
    # bit-identical to calling es.
    v_edge = (1.0 - eta) / eta
    first_region = kl_divergence(1.0 - eta, pbar) / (1.0 - eta)
    two_rate = 2.0 * rate_nats
    eta_ratio = eta / (1.0 - eta)
    snr = channel.snr

    def objective(theta: float) -> float:
        w = v / (1.0 + theta)
        if w <= v_edge:
            e = first_region + two_rate * (1.0 / w - eta_ratio)
        elif w >= snr:
            e = 0.0
        else:
            wbar = w / (1.0 + w)
            e = kl_divergence(wbar, pbar) / wbar
        return 0.5 * v * e - theta * rate_nats

    lo, hi = theta_span
    grid = np.geomspace(lo, hi, theta_grid_size)
    vals = np.array([objective(th) for th in grid.tolist()])
    best = objective(0.0)
    i = int(np.argmin(vals))
    best = min(best, float(vals[i]))

    # golden-section polish in log-theta around the best grid point
    a = math.log(grid[max(i - 1, 0)])
    b = math.log(grid[min(i + 1, theta_grid_size - 1)])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(math.exp(c)), objective(math.exp(d))
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(math.exp(d))
    return min(best, fc, fd)


def worst_bit_error_bound(grid, packet_bits: int, period: int, r: int, delta: int,
                          tau_max: int | None = None) -> float:
    """Exact finite-delay bound on the worst-bit error P_e(r, delta).

    Maximizes, over packet indices tau with tau*period + delta inside the
    grid, the clamped (tau+1)*psi-bit prefix bound evaluated on the exact
    lattice MSE.  ``grid`` must expose ``at(r, t)`` and ``t_max``.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    taus = range(0, (grid.t_max - delta) // period + 1)
    if tau_max is not None:
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

    def per_time_values(self) -> np.ndarray:
        """The same exponents measured per time step instead of per relay.

        Along t = floor(r/v) trajectories the two normalizations differ by a
        factor v; the per-time form stays finite as v -> 0 (v * ES -> 2R).
        """
        return self.velocities * self.values


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
    velocities = np.asarray(velocities, dtype=float)
    if kind != "E1" and rate_nats is None:
        raise ValueError(f"{kind} requires rate_nats")
    vals = np.empty_like(velocities)
    for i, w in enumerate(velocities):
        vel = Velocity(float(w), convention)
        v_inst = translate_velocity(vel, HopConvention.INSTANTANEOUS).value
        if kind == "E1":
            vals[i] = e1(channel, v_inst)
        elif kind == "ES":
            vals[i] = es(channel, rate_nats, v_inst)
        elif kind == "STREAM_ENVELOPE":
            vals[i] = stream_envelope_exponent(channel, rate_nats, v_inst)
        else:
            raise ValueError(f"unknown curve kind {kind!r}")
    return ExponentCurve(
        kind=kind,
        channel=channel,
        convention=convention,
        rate_nats=rate_nats,
        velocities=velocities,
        values=vals,
    )


def write_curve_csv(curves, path) -> None:
    """Export one or more curves as ``v,exponent,kind,convention`` rows."""
    if isinstance(curves, ExponentCurve):
        curves = [curves]
    with open(path, "w", newline="") as fh:
        fh.write("v,exponent,kind,convention\n")
        for c in curves:
            for v, val in zip(c.velocities, c.values):
                fh.write(f"{v:.17g},{val:.17g},{c.label},{c.convention.value}\n")
