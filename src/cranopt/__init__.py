"""Optimal transmit and quantization covariance designs for a single
remote radio head serving one user over a rate-limited fronthaul link.

The library solves both link directions (uplink: quantize-and-forward at
the radio head; downlink: precode-and-compress at the central processor)
through one scalar power/share allocation on the channel's singular values,
which each direction's assembly realizes as a singular-basis covariance
design, and ships the certification tooling (a certified bound on the
scalar optimum, random perturbation search, spectral-inequality probes)
used to validate the designs numerically.  The command-line harness is
``cranopt.cli``; importing the package does not load it.
"""

from .allocation import (
    C_MAX_DEFAULT,
    SubchannelAllocation,
    solve_scalar_allocation,
    subchannel_rate,
    tight_quantizer_downlink,
    tight_quantizer_uplink,
    waterfilling_capacity,
)
from .downlink import (
    assemble_downlink,
    check_downlink_feasible,
    downlink_fronthaul,
    downlink_rate,
)
from .errors import (
    DomainError,
    InconsistencyError,
    InstanceFormatError,
    InvalidInputError,
)
from .kernels import (
    LN2,
    TOL,
    ChannelSpectrum,
    Tolerances,
    hermitian_part,
    is_psd,
    logdet_ratio,
    random_channel,
    random_unitary,
    svd,
)
from .majorization import (
    check_downlink_bounds,
    check_power_lower_bound,
    check_uplink_rate_bound,
)
from .oracle import (
    CERTIFICATION_TOL,
    CertificationReport,
    certified_gap_bits,
    feasibility_projection,
    perturbation_search,
)
from .problem import (
    DIRECTIONS,
    DOWNLINK,
    UPLINK,
    ChannelInstance,
    DownlinkDesign,
    RateReport,
    UplinkDesign,
    psd_part,
    restrict,
)
from .solver import duality_gap, solve_instance
from .uplink import (
    assemble_uplink,
    check_uplink_feasible,
    uplink_fronthaul,
    uplink_rate,
)

__version__ = "0.1.0"

__all__ = [
    "C_MAX_DEFAULT",
    "CERTIFICATION_TOL",
    "ChannelInstance",
    "ChannelSpectrum",
    "CertificationReport",
    "DIRECTIONS",
    "DOWNLINK",
    "DomainError",
    "DownlinkDesign",
    "InconsistencyError",
    "InstanceFormatError",
    "InvalidInputError",
    "LN2",
    "RateReport",
    "SubchannelAllocation",
    "TOL",
    "Tolerances",
    "UPLINK",
    "UplinkDesign",
    "assemble_downlink",
    "assemble_uplink",
    "certified_gap_bits",
    "check_downlink_bounds",
    "check_downlink_feasible",
    "check_power_lower_bound",
    "check_uplink_feasible",
    "check_uplink_rate_bound",
    "downlink_fronthaul",
    "downlink_rate",
    "duality_gap",
    "feasibility_projection",
    "hermitian_part",
    "is_psd",
    "logdet_ratio",
    "perturbation_search",
    "psd_part",
    "random_channel",
    "random_unitary",
    "restrict",
    "solve_instance",
    "solve_scalar_allocation",
    "subchannel_rate",
    "svd",
    "tight_quantizer_downlink",
    "tight_quantizer_uplink",
    "uplink_fronthaul",
    "uplink_rate",
    "waterfilling_capacity",
]
