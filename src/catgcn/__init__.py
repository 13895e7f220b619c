"""Graph convolution over categorical node features.

Node representations come from two interaction routes over each node's
embedded feature set (a bilinear pairwise pooling and a probe-filtered global
mixing), fused late and propagated over the symmetrically normalized graph.
"""

__version__ = "0.1.0"

from .autodiff import Tape, Tensor, backward, finite_diff_check
from .data import (
    DataError,
    FeatureSample,
    RawDataset,
    SplitAssignment,
    generate_synthetic,
    load_dataset,
    make_split,
    sample_features,
    write_dataset,
)
from .graph import CsrMatrix, DegreeVector, build_adjacency, normalize_sym, propagate, spmm
from .interaction import artificial_propagate, forward_all_nodes, local_biinteraction
from .model import ModelParams, model_forward, predict
from .oracle import (
    SpectralReport,
    TheoremCertificate,
    biinteraction_pairwise,
    certify_theorem,
    jacobi_eigh,
    spectrum_check,
    theorem_rho2,
)
from .training import (
    AdamState,
    EpochRecord,
    TrainConfig,
    TrainingDiverged,
    TrainResult,
    accuracy_macro_f1,
    adam_step,
    evaluate,
    grid_search,
    train,
    xavier_init,
)

__all__ = [name for name in dir() if not name.startswith("_")]
