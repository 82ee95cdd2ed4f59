"""Compound-Poisson path space toolkit.

Simulates unit-rate jump paths with i.i.d. marks, applies the random shift
map, and verifies the resulting path-space identities: the shifted-law
density, the generator pairing, the variance/energy (spectral gap)
inequality with its sharp constant, and the unbounded entropy/energy ratio
that rules out a log-Sobolev inequality.  Exact lattice oracles back every
statistical estimate wherever the jump measure has finite integer support.
"""

__version__ = "0.1.0"

from . import errors
from .intensity import (
    IntensityMeasure,
    gauss_shifted,
    measure_from_spec,
    project_mark,
    uniform_interval,
    uniform_pm1,
)
from .path import JumpPath, sup_distance
from .sampler import (
    PathBatch,
    ShiftedBatch,
    StreamConfig,
    project_path,
    sample_path,
    sample_path_batch,
    sample_shifted_batch,
)
from .functional import (
    CountFunctional,
    CylindricalFunctional,
    JumpTimeDistribution,
    MCEstimate,
    Moments,
    PairingResult,
    QIComparison,
    capped_count,
    coordinate,
    energy_mc,
    evaluate,
    evaluate_batch,
    gamma,
    generator_apply,
    indicator_at,
    moments_mc,
    pairing_mc,
    pi_k,
    pi_k_rank_counts,
    product_indicator,
    qi_mc,
)
from .oracle import (
    CountStats,
    IncrementGrid,
    LatticeModel,
    PmfTable,
    SmallTimeRow,
    count_weighted_pmf,
    exact_energy,
    expect_cylindrical,
    expect_with_count,
    lsi_exceed_level,
    lsi_witness_curve,
    poincare_check,
    poisson_count_stats,
    poisson_truncation,
    qi_check,
    semigroup_gap,
    small_time_table,
    transition_pmf,
    witness_ratio,
)
from .harness import (
    CheckRow,
    Report,
    RunConfig,
    SUITE_NAMES,
    config_from_dict,
    default_config,
    parse_config,
    run_suite,
)
