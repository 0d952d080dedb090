"""Constructive sup-norm approximation of periodic functions by shallow ReLU
networks, with a measurement harness for every checkable bound and rate."""

from .targets import (
    CUBE,
    TORUS,
    EvaluationGrid,
    FourierTarget,
    default_grid,
    difference,
    evaluate,
    grid_values,
    holder_norm,
    load_target,
    make_decay_target,
    make_trig_poly,
    save_target,
    sup_norm,
)
from .jackson import (
    JacksonKernel1D,
    JacksonMultiplier,
    apply_jackson,
    build_kernel,
    fejer_coefficients,
    jackson_sup_error,
    multiplier_from_kernel,
)
from .spectral import (
    SpectralLevels,
    build_levels,
    level_series,
    level_sup_constant,
    parseval_residual,
    shell_sums,
    variation,
)
from .sampler import (
    Preparation,
    SamplingDensity,
    SamplingPlan,
    affine_units,
    build_density,
    build_strata,
    construct,
    identity_residual,
    plain_sample,
    prepare,
    realize,
    select_bandwidth,
    stratified_sample,
)
from .network import (
    ShallowNetwork,
    audit,
    certified_sup_error,
    grid_error,
    load_network,
    save_network,
    sup_error,
)
from .network import evaluate as evaluate_network
from .harness import (
    RateExperiment,
    fit_slope,
    run_jackson_rate,
    run_network_rate,
    run_paired_mc,
)

__version__ = "0.1.0"
