"""Feedforward quantum singular value transformation simulator.

Phase-factor synthesis for signal-processing circuits, block encodings of
Hermitian matrices, full circuit assembly with closed-form block
predictions, a measurement-and-reset runtime with outcome-conditioned
feedforward, the adaptive multi-band projection driver, exact
diagonalization oracles for every claim, and no-feedforward baselines.
"""

from .bands import (
    BandStructure,
    check_band_assumption,
    detect_bands,
    exact_projectors,
    synthetic_band_spectrum,
)
from .baselines import (
    adiabatic_leakage_scaling,
    adiabatic_time_estimate,
    prob_projection_depth,
    random_walk_success,
)
from .blockenc import dilate_hermitian
from .bosehubbard import (
    GmonModel,
    band_labels,
    build_h0,
    build_h1,
    default_model,
    normalize_for_qsvt,
)
from .chebyshev import ChebyshevSeries, FilterSpec, certify_filter, heaviside_filter
from .feedforward import (
    BranchTree,
    channel_distance,
    extract_kraus,
    feedforward_query_count,
    run_1fqsvt,
    run_multiband,
    sample_trajectories,
)
from .linalg import (
    HermitianSpectrum,
    eigh,
    haar_vector,
    rng,
    trace_norm,
)
from .qsp import (
    PhaseFactorSet,
    QspPolynomialPair,
    extract_pq,
    synthesize_symmetric,
)
from .qsvt import assemble_full, predicted_blocks

__version__ = "0.1.0"
