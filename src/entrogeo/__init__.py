"""entrogeo: Fisher-metric geodesics, entropy production, and efficiency
ranking for driven two-level systems."""

__version__ = "0.1.0"

from .errors import (
    DegenerateDistribution,
    DomainError,
    EntrogeoError,
    MetricDegenerate,
    NoSignChange,
    OutOfValidity,
    QuadratureFailure,
    RootFailure,
    StepFailure,
)
from .schemes import (
    AmplitudePair,
    DrivingScheme,
    ProbabilityPath,
    SchemeKind,
    amplitudes,
    field_intensity,
    integrated_phase,
    probability_path,
    transition_probability,
)
from .geometry import (
    Geodesic,
    GeodesicFormulation,
    MetricField,
    MetricSource,
    SampledGeodesic,
    fisher_closed_form,
    fisher_numeric,
    geodesic_closed_form,
    geodesic_numeric,
)
from .pathmetrics import (
    ParamTrajectory,
    PathMetricsReport,
    entropic_speed,
    entropy_rate_metric,
    entropy_rate_score,
    igc,
    report,
    thermodynamic_divergence,
    thermodynamic_length,
)
from .efficiency import (
    EfficiencyRanking,
    check_ranking_preservation,
    eta1,
    eta2,
    eta_sym,
    rank_schemes,
    rate_crossover,
    region_boundary_scale,
)
from .thermo import (
    TwoLevelEnsemble,
    beta_from_upper_probability,
    energy_variance,
    entropy_of_energy,
    entropy_rate_canonical,
    entropy_rate_probability_velocity,
    gibbs_probabilities,
)
