"""Randomized predictive systems: conformal, Mondrian, Venn, and plain
probability forecasting, with a Monte-Carlo validation harness."""

from .core import (
    Columns,
    ExtendedObservation,
    Observation,
    PredictiveBand,
    RandomStream,
    derive_stream,
)
from .conformity import (
    check_monotonic,
    check_permutation_invariance,
    histogram_score,
    nn_score,
    trivial_score,
)
from .partition import cell_index, h_schedule, histogram_taxonomy
from .transducers import (
    conformal_pvalue,
    dh_band,
    hcps_band,
    hmps_band,
    mondrian_pvalue,
    nn_band,
    pfs_distribution,
    venn_distribution,
)
from .harness import (
    SAMPLERS,
    SYSTEMS,
    TEST_FUNCTIONS,
    Sampler,
    TestFunction,
    VennCalibrationResult,
    consistency_curve,
    ks_uniform,
    marginal_calibration_exchangeable,
    marginal_calibration_iid,
    online_coverage,
    pit_sample,
    venn_calibration,
)

__version__ = "0.1.0"

__all__ = [
    "Observation",
    "ExtendedObservation",
    "Columns",
    "PredictiveBand",
    "RandomStream",
    "derive_stream",
    "trivial_score",
    "nn_score",
    "histogram_score",
    "check_permutation_invariance",
    "check_monotonic",
    "h_schedule",
    "cell_index",
    "histogram_taxonomy",
    "conformal_pvalue",
    "mondrian_pvalue",
    "dh_band",
    "nn_band",
    "hmps_band",
    "hcps_band",
    "pfs_distribution",
    "venn_distribution",
    "Sampler",
    "TestFunction",
    "SAMPLERS",
    "SYSTEMS",
    "TEST_FUNCTIONS",
    "pit_sample",
    "ks_uniform",
    "online_coverage",
    "consistency_curve",
    "marginal_calibration_exchangeable",
    "marginal_calibration_iid",
    "venn_calibration",
    "VennCalibrationResult",
    "__version__",
]
