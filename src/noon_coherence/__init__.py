"""Two-mode bosonic states and mesoscopic quantum-coherence quantifiers."""

from .channels import LossSetting, apply_loss, detected_moment
from .coherence import (
    CoherenceElement,
    CoherenceReport,
    OrderArrays,
    OrderCoherence,
    catness_fidelity,
    coherence_report,
    coherence_spectrum,
    corrected_lower_bound,
    max_coherence_sum,
    max_coherence_sum_numeric,
    normalization,
    order_coherences,
    s_factor,
    spread,
)
from .dynamics import (
    EvolutionTrace,
    JosephsonSystem,
    PeriodEstimate,
    build_hamiltonian,
    evolve,
    tunnelling_period,
)
from .errors import AliasingError, NoOscillationError, NumericalError
from .fock import (
    FixedNState,
    OperatorMonomial,
    SchwingerMoments,
    TwoModeDensityMatrix,
    cross_moment,
    moment,
    number_distribution,
    schwinger_moments,
    to_density_matrix,
)
from .interferometry import (
    FringeScan,
    QuadratureMoments,
    binned_probability_scan,
    cross_moment_scan,
    fringe_visibility,
    identity_residuals,
    intensity_difference,
    mode_transform,
    mode_transform_density,
    moment_from_fringes,
    moment_from_quadratures,
    moment_from_spins,
    rotate_modes,
)
from .squeezing import (
    CoherenceBound,
    SqueezeData,
    TwoAtomInference,
    coherence_bound,
    infer_two_atom_coherence,
    mixed_state_bound_check,
    read_squeeze_rows,
    squeeze_parameter,
    transverse_squeeze_parameter,
)
from .states import (
    StateRecipe,
    make_binomial_splitter,
    make_embedded_cat,
    make_noon,
    make_number_pair,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
