"""Latent factor analysis for high-dimensional stationary time series.

The package estimates the loading space of an approximate factor model
from eigenanalysis of the sample covariance, aggregated autocovariances,
or weight-calibrated autocovariances, selects the factor count by an
offset eigenvalue-ratio rule, tunes the calibration dimension by a
generalized information criterion, and builds factor-based forecasts.
A matrix-valued extension estimates row and column loading spaces of
matrix time series.
"""

from .errors import (
    DegenerateSpectrum,
    IllConditioned,
    IngestError,
    InvalidConfig,
    InvalidData,
    InvalidLag,
    PreconditionViolated,
    TsfactorError,
)
from .factor import EstimatorConfig, FactorFit, WeightMatrix, estimate
from .forecast import (
    ArmaFit,
    ForecastReport,
    MethodForecast,
    expanding_window_eval,
    fit_arma,
    forecast_arma,
    pipeline_forecast,
)
from .io import ingest_csv, ingest_matrix_csv, read_loadings_csv, write_loadings_csv
from .matrixfactor import MatrixFactorFit, MatrixPanel, estimate_matrix
from .modelselect import BicTrace, select_q
from .simulate import (
    MethodSummary,
    RunRecord,
    SimulationReport,
    SimulationSpec,
    run_monte_carlo,
)
from .tsstats import TimePanel, demean, sample_autocov, subspace_distance, sym_eigen

__version__ = "0.1.0"

__all__ = [
    "ArmaFit",
    "BicTrace",
    "DegenerateSpectrum",
    "EstimatorConfig",
    "FactorFit",
    "ForecastReport",
    "IllConditioned",
    "IngestError",
    "InvalidConfig",
    "InvalidData",
    "InvalidLag",
    "MatrixFactorFit",
    "MatrixPanel",
    "MethodForecast",
    "MethodSummary",
    "PreconditionViolated",
    "RunRecord",
    "SimulationReport",
    "SimulationSpec",
    "TimePanel",
    "TsfactorError",
    "WeightMatrix",
    "demean",
    "estimate",
    "estimate_matrix",
    "expanding_window_eval",
    "fit_arma",
    "forecast_arma",
    "ingest_csv",
    "ingest_matrix_csv",
    "pipeline_forecast",
    "read_loadings_csv",
    "run_monte_carlo",
    "sample_autocov",
    "select_q",
    "subspace_distance",
    "sym_eigen",
    "write_loadings_csv",
    "__version__",
]
