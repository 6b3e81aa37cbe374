"""cohsim: coherent-state / linear-optics simulation of qubit communication protocols.

The mapping takes a d-dimensional protocol built from pure states, unitaries,
and canonical-basis measurements to one using d optical modes carrying
coherent amplitudes, linear optics, and per-mode threshold detectors.  The
package provides the translation, its detector statistics, the analytic
bounds governing it, and full simulations of the hidden-matching and
digital-signature protocols built on top of it.
"""

from .core import (
    DimensionMismatchError,
    PureState,
    Seed,
    UnitaryOp,
    apply_unitary,
    basis_state,
    inner_product,
    normalized,
    random_state,
    random_unitary,
    uniform_state,
)
from .mapping import (
    DimensionBound,
    ModeCoherentState,
    beam_splitter,
    effective_dimension_bound,
    map_state,
    map_unitary_apply,
    overlap_coherent,
    parse_bits,
    phase_encoded_state,
    poisson_tail_bound,
    solve_alpha_for_overlap,
    transmitted_info,
)
from .detection import (
    ClickPattern,
    click_probabilities,
    poissonized_repetition_oracle,
    sample_click_pattern,
    sample_photon_numbers,
)
from .commx import (
    ClickCountStats,
    LecamCheck,
    McEstimate,
    Outcome,
    SuccessConditionReport,
    check_success_condition,
    click_count_stats,
    decide,
    estimate_success_probability,
    lecam_bound_check,
    poisson_binomial_exact,
    two_block_trial_generator,
)
from .hidden_matching import (
    Matching,
    TrialStats,
    bob_unitary,
    output_port_labels,
    random_matching,
    run_experiment,
)
from .qds import (
    EqualityTestReport,
    QdsConfig,
    QdsTranscript,
    VerificationVerdict,
    equality_test,
    keygen,
    run_qds,
    split,
    usd_measure,
    verify_message,
)

__version__ = "0.1.0"

# The public surface: every name the imports above bind, less the submodules they
# bind too (``type(core)`` is the module type).
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, type(core))
]
