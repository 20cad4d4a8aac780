"""glfm: Bayesian nonparametric latent feature modeling of heterogeneous tabular data.

A binary latent feature matrix Z (Indian Buffet Process prior) and per-attribute
weight vectors explain mixed real, positive-real, categorical, ordinal, and count
observations through Gaussian pseudo-observations. Inference is an accelerated
collapsed Gibbs sampler; applications are missing-data completion and
pattern-based data exploration.
"""

from glfm.data import (
    AttributeKind,
    AttributeSpec,
    DataMatrix,
    fit_transform_params,
    fit_transforms,
    load_dataset,
    parse_attribute_spec,
)
from glfm.engine import (
    Hyperparams,
    LatentState,
    init_state,
    run_chain,
    run_iteration,
)
from glfm.likelihoods import TransformParams
from glfm.randkit import RngState
from glfm.tasks import Pattern, compute_pdf, extract_patterns

__version__ = "0.1.0"

__all__ = [
    "AttributeKind",
    "AttributeSpec",
    "DataMatrix",
    "Hyperparams",
    "LatentState",
    "Pattern",
    "RngState",
    "TransformParams",
    "compute_pdf",
    "extract_patterns",
    "fit_transform_params",
    "fit_transforms",
    "init_state",
    "load_dataset",
    "parse_attribute_spec",
    "run_chain",
    "run_iteration",
]
