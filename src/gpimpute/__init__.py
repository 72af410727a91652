"""GP-based imputation for multivariate, irregularly sampled time series.

Two-layer deep Gaussian process emulation with stochastic imputation, plus
closed-form linked-GP uncertainty propagation, classical baselines, and a
synthetic benchmark harness.
"""

__version__ = "0.1.0"

from .baselines import (
    ImputationMethodResult,
    MethodTag,
    MICEConfig,
    independent_gp_impute,
    locf_impute,
    mice_impute,
)
from .data import (
    MaskPlan,
    ObservationTable,
    StandardisationRecord,
    SyntheticConfig,
    apply_mask,
    discretise_hourly,
    generate_synthetic_window,
    ingest_csv,
    interval_mask_plan,
    make_mask_plan,
    standardise,
)
from .dgp import (
    DGPSIEmulator,
    EnsemblePrediction,
    SEMConfig,
    ess_update,
    impute_covariates,
    impute_latents,
    load_emulator,
    predict_ensemble,
    save_emulator,
    train_sem,
)
from .experiment import (
    EvaluationReport,
    ExperimentConfig,
    evaluate_mae,
    run_experiment,
)
from .gp import (
    FitConfig,
    FittedGP,
    GPHyperparams,
    PredictiveGaussian,
    TrainingSet,
    fit_gp,
    log_marginal_likelihood,
    make_fitted_gp,
    predict,
    predict_batch,
)
from .kernels import (
    CorrelationMatrix,
    KernelSpec,
    build_correlation,
    expect_k,
    expect_kk,
    kernel_value,
)
from .linked import (
    LayerArchitecture,
    LinkedEmulator,
    link_predict,
    propagate_moments,
)
