"""Federated learning simulator with frequency-domain aggregation.

The package couples a server-side aggregator that fuses client models in
the 2-D Fourier domain (shared low-frequency amplitude band, client-kept
phase and high frequencies, band growing over training) with a client-side
deputy scheme that absorbs each aggregate and transfers its knowledge into
an untouched personalized model through recover/exchange/sublimate phases.
Plain-averaging and proximal baselines, a small numpy neural network,
synthetic heterogeneous clients and macro F1/AUC metrics round out the
experiment harness.  Importing the package sets numpy's bundled OpenBLAS
to one thread (``model._set_blas_threads``), so no result depends on the
thread count the environment asks for.
"""

from .data import ClientProfile, FederatedDataset, default_profiles, ood_client, synth
from .det import DetConfig, DetPhase, det_phase_transition
from .freq_agg import (
    AggregationRequest,
    fedavg_aggregate,
    low_freq_mask,
    pfa_aggregate,
    reshape_conv,
    unreshape_conv,
)
from .metrics import EvalResult, evaluate, macro_auc, macro_f1
from .model import (
    MODEL_SPECS,
    ModelSpec,
    backward,
    ce_loss,
    forward,
    init_params,
    kl_div,
)
from .numerics import AmpPhase, SymmetryViolationError, amp_phase, dft2, idft2, recompose
from .orchestrator import (
    ExperimentConfig,
    ExperimentResult,
    emit_report,
    mean_boundary_change,
    run_experiment,
)

__version__ = "0.1.0"
