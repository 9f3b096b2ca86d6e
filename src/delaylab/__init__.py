"""delaylab: reliability-vs-delay bounds for DMCs and feedback-scheme simulators.

The library computes the fixed-block-length and fixed-delay reliability
bounds of discrete memoryless channels (sphere-packing, Haroutunian,
random-coding/list, Burnashev, uncertainty-focusing, two-stream time
sharing) and simulates the feedback communication schemes whose measured
delay exponents those bounds govern: the erasure-channel FIFO scheme, the
D/G/1 point-message queue, and the fortified (n, c, l) hybrid-ARQ scheme.

All rates and exponents are in nats unless a name says ``_bits``.
"""

from .dmc import (
    Dmc,
    ConvergenceError,
    bsc,
    bec,
    z_channel,
    identity_channel,
    capacity,
    mutual_information,
    divergence_conditional,
    output_symmetry_partition,
    is_output_symmetric,
    c1,
    nats_from_bits,
    bits_from_nats,
    LN2,
)
from .optimize import (
    ConvexSolution,
    E0Solution,
    Search1DResult,
    maximize_concave_1d,
    maximize_e0,
    maximize_over_simplex,
    minimize_convex_on_simplex,
    minimize_over_channels,
)
from .exponents import (
    FocusingPoint,
    gallager_e0,
    e0_max,
    sphere_packing,
    random_coding_list,
    haroutunian,
    divergence_rate,
    zero_error_feedback_capacity,
    burnashev_bound,
    focusing_bound,
    focusing_parametric_curve,
    timesharing_exponent,
    timesharing_curve,
    bec_anytime_capacity,
    bec_focusing_point_bits,
    bec_focusing_exponent_bits,
    bec_lowrate_floor,
    bound_at_rate,
    bound_curve,
    bound_curves,
)
from .bec_lab import (
    SimTrace,
    DelayExponentFit,
    simulate_fifo,
    simulate_causal_parity_nofeedback,
    birth_death_stationary,
    union_bound_exact,
    fit_delay_exponent,
    measure_delay_exponent,
    miss_probability,
    queue_seen_by_arrivals,
)
from .queue_model import (
    ServiceTimeModel,
    simulate_point_queue,
    tail_exponent_bound,
    coupled_dominance_check,
)
from .ncl_scheme import (
    NclParams,
    TwoStreamSplit,
    select_params,
    transmission_tail_bound,
    simulate_ncl_bound_driven,
    simulate_ncl_exact_tiny,
    delayed_feedback_adjust,
    two_stream_split,
    simulate_two_stream,
)

__version__ = "0.1.0"
