"""Optimal transmit and quantization covariance designs for a single
remote radio head serving one user over a rate-limited fronthaul link.

The library solves both link directions (uplink: quantize-and-forward at
the radio head; downlink: precode-and-compress at the central processor),
assembles the singular-basis covariance designs the scalar solutions
induce, and ships the certification tooling (exhaustive grid oracle,
random perturbation search, spectral-inequality probes) used to validate
the designs numerically.
"""

from .allocation import (
    C_MAX_DEFAULT,
    DIRECTIONS,
    DOWNLINK,
    UPLINK,
    SolverOptions,
    SubchannelAllocation,
    allocation_rate,
    realize_allocation,
    solve_scalar_allocation,
    subchannel_rate,
    tight_quantizer_downlink,
    tight_quantizer_uplink,
    uplink_to_downlink,
    waterfilling_capacity,
)
from .cli import (
    ExperimentConfig,
    ResultRow,
    load_instances,
    main,
    run,
    serialize_instance,
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
    ProjectionError,
    UnsupportedSizeError,
)
from .kernels import (
    LN2,
    TOL,
    ChannelSpectrum,
    Tolerances,
    hermitian_part,
    is_psd,
    logdet_hpd,
    logdet_ratio,
    random_channel,
    random_unitary,
    svd,
)
from .majorization import (
    MajorizationProbe,
    SpectrumVector,
    check_downlink_bounds,
    check_power_lower_bound,
    check_uplink_rate_bound,
    log_majorizes,
    product_spectrum,
    schur_geo_convexity_probe,
)
from .oracle import (
    CERTIFICATION_TOL,
    CertificationReport,
    feasibility_projection,
    grid_oracle_scalar,
    perturbation_search,
)
from .problem import (
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
    "ExperimentConfig",
    "InconsistencyError",
    "InstanceFormatError",
    "InvalidInputError",
    "LN2",
    "MajorizationProbe",
    "ProjectionError",
    "RateReport",
    "ResultRow",
    "SolverOptions",
    "SpectrumVector",
    "SubchannelAllocation",
    "TOL",
    "Tolerances",
    "UPLINK",
    "UnsupportedSizeError",
    "UplinkDesign",
    "allocation_rate",
    "assemble_downlink",
    "assemble_uplink",
    "check_downlink_bounds",
    "check_downlink_feasible",
    "check_power_lower_bound",
    "check_uplink_feasible",
    "check_uplink_rate_bound",
    "downlink_fronthaul",
    "downlink_rate",
    "duality_gap",
    "feasibility_projection",
    "grid_oracle_scalar",
    "hermitian_part",
    "is_psd",
    "load_instances",
    "log_majorizes",
    "logdet_hpd",
    "logdet_ratio",
    "main",
    "perturbation_search",
    "product_spectrum",
    "psd_part",
    "random_channel",
    "random_unitary",
    "realize_allocation",
    "restrict",
    "run",
    "serialize_instance",
    "solve_instance",
    "solve_scalar_allocation",
    "subchannel_rate",
    "svd",
    "tight_quantizer_downlink",
    "tight_quantizer_uplink",
    "uplink_fronthaul",
    "uplink_rate",
    "uplink_to_downlink",
    "waterfilling_capacity",
]
