"""Tabular intrusion-detection analysis toolkit.

Pieces: columnar CSV ingestion with schema-driven encoding, robust scaling
and correlation-aware feature selection, native tree ensembles (CART, random
forest, histogram GBDT) with stratified cross-validation, per-class Gaussian
kernel density estimates, Jensen-Shannon distances between class-conditional
densities, and a Westfall-Young max-T permutation test with FWER-adjusted
p-values. The ``idstats`` CLI orchestrates the stages from one config file.
"""

from types import ModuleType as _ModuleType

from ._version import __version__
from .config import RunConfig, load_config
from .density import (
    DensityPair,
    EvalGrid,
    KdeModel,
    bandwidth_for,
    cv_bandwidth,
    js_distance,
    js_distance_from_masses,
    kde_eval,
    make_grid,
    overlap_coefficient,
    overlap_intervals,
    scott_bandwidth,
    shape_summary,
    to_mass_pair,
)
from .errors import ConfigError, DataError, DataQualityWarning, IdstatsError
from .evaluation import (
    CvReport,
    confusion_matrix,
    grid_search,
    prf_macro,
    roc_auc_ovr_macro,
    stratified_kfold,
)
from .preprocess import (
    EngineeredFeature,
    correlation_matrix,
    drop_correlated,
    engineer_features,
    kendall_tau_b,
    pearson_corr,
    robust_fit,
    robust_transform,
)
from .tabular import (
    ColumnSchema,
    ColumnTable,
    LabelVocabulary,
    apply_encoders,
    dedup,
    fit_encoders,
    load_csv,
    stratified_split,
)
from .trees import (
    ModelSpec,
    RfeConfig,
    derive_seed,
    fit_forest,
    fit_gbdt,
    fit_model,
    fit_tree,
    impurity_importance,
    model_from_dict,
    model_to_dict,
    predict_labels,
    predict_proba,
    rfe,
    save_model,
)
from .wytest import (
    Observation,
    WyConfig,
    WyTestReport,
    decide,
    observed_details,
    wy_maxT,
)

# every public name imported above; the submodules those imports bind stay out
__all__ = ["__version__"] + sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
