"""noise-forge: training engine and measurement lab for two-minibatch
noise-enhanced SGD/Adam.

The gradient rule combines two independent minibatch gradients,
alpha * grad(B) + (1 - alpha) * grad(B'), which multiplies the minibatch
noise covariance by alpha^2 + (1 - alpha)^2 while leaving the expected
update direction unchanged. The lab half of the package verifies that
prediction by enumeration, closed form, and Monte Carlo, and the harness
half runs the loss-threshold training protocol that measures its effect on
test accuracy and convergence time.
"""

from .dataio import Dataset, SyntheticSpec, load_idx_pair, make_synthetic, split_holdout
from .harness import (
    AggregateResult,
    ProbePlan,
    RunRecord,
    SweepPlan,
    TrainConfig,
)
from .model import MlpSpec, ParamVector, glorot_init, loss_and_grad
from .noiselab import (
    ProbeRow,
    effective_batch,
    enhancement_factor,
    probe_noise,
    sample_ne_noise,
)
from .optim import NEConfig, OptimizerState, training_step

__version__ = "0.1.0"

__all__ = [
    "AggregateResult",
    "Dataset",
    "MlpSpec",
    "NEConfig",
    "OptimizerState",
    "ParamVector",
    "ProbePlan",
    "ProbeRow",
    "RunRecord",
    "SweepPlan",
    "SyntheticSpec",
    "TrainConfig",
    "effective_batch",
    "enhancement_factor",
    "glorot_init",
    "load_idx_pair",
    "loss_and_grad",
    "make_synthetic",
    "probe_noise",
    "sample_ne_noise",
    "split_holdout",
    "training_step",
    "__version__",
]
