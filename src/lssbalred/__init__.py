"""Balanced truncation, grammians and gain analysis for linear switched
systems, in both continuous and discrete time.

The main entry points are :func:`reduce_model` (balanced truncation with the
a-priori error bound), :func:`compute_pair` / :func:`nice_grammians`
(grammian computation), :func:`l2_gain_upper_bound`, and the simulation-based
verifiers in :mod:`lssbalred.simulate`.
"""

__version__ = "0.1.0"

from .balred import (
    BalancingResult,
    ReductionResult,
    admissible_orders,
    balance,
    compute_pair,
    reduce_model,
    truncate,
)
from .embeddings import (
    build_uncertain_embedding,
    check_beck_grammian_projection,
    check_uncertain_minimality_equivalence,
    monte_carlo_stochastic_energy,
    stochastic_embedding,
)
from .errors import InfeasibleError, LssError, ModelFormatError
from .gain import gamma_feasible, hankel_upper_bound, l2_gain_upper_bound
from .grammians import (
    GrammianPair,
    SingularValues,
    averaged_grammians,
    lmi_grammian,
    nice_grammians,
    singular_values,
    transport_pair,
)
from .lmi import (
    AffineLmiSystem,
    Certificate,
    FeasibilityResult,
    LmiBlock,
    LmiTerm,
    check_membership,
    family_system,
    solve_feasibility,
    tighten_trace,
)
from .model import (
    CONTINUOUS,
    DISCRETE,
    Isomorphism,
    LssModel,
    SwitchingSignal,
    apply_isomorphism,
    dual_system,
    load_model,
    loads_model,
    dumps_model,
    random_stable_model,
    save_model,
    validate_model,
)
from .realization import (
    hankel_block,
    is_minimal,
    markov_parameter,
    minimize,
    minimize_with_pair,
    observability_reduction,
    reachability_reduction,
    reachable_subspace,
    unobservable_subspace,
)
from .simulate import (
    GainEstimate,
    Trajectory,
    check_energy_lemmas,
    decay_horizon,
    empirical_gain,
    empirical_hankel_gain,
    simulate,
    verify_error_bound,
    zoh_input_norm,
)
from .stability import (
    check_quadratic_stability,
    check_strong_stability,
    strong_implies_quadratic_witness,
)
