"""Information propagation over cascaded additive-noise channels with feedback.

Analytic toolkit (exact LMMSE lattices, error exponents, information-velocity
bounds) cross-validated against a Monte Carlo simulator of the linear
relaying scheme.
"""

from .params import (
    ChannelParams,
    HopConvention,
    StreamParams,
    Velocity,
    make_channel_params,
    make_stream_params,
    translate_velocity,
)
from .mse import (
    ExponentialRefinementBoundary,
    MseGrid,
    PacketStreamBoundary,
    SequenceBoundary,
    SingleSampleBoundary,
    solve_grid,
)
from .exponents import (
    ExponentCurve,
    e1,
    e2,
    e_tilde,
    es,
    iv_lower_bound_single,
    iv_lower_bound_stream,
    kl_divergence,
    packet_error_bound_chebyshev,
    packet_error_bound_gaussian,
    prefix_error_bound,
    sample_exponent_curve,
    stream_envelope_exponent,
)
from .simulate import (
    CustomRefinementSource,
    GainTable,
    KnownSampleSource,
    PacketStreamSource,
    RefinementSource,
    SinglePacketSource,
    coefficient_trial,
    precompute_gains,
    run_monte_carlo,
    run_trial,
)

__version__ = "0.1.0"
