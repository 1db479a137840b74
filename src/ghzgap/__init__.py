"""Entangled q-station measurements vs deterministic hidden-variable models.

The library answers one question at every scale from q = 2 to q ~ 1e27: how
often does the best per-station deterministic answer table fail to reproduce
the entangled state's predictions, how often does the real (error-prone)
quantum setup fail, and at what station count does the difference between
the two fall below any given experimental resolution.
"""

from types import ModuleType as _ModuleType

from .asymptotics import (
    AVOGADRO,
    CONSTITUENT_FACTORS,
    GapReport,
    MacroscopicReport,
    REFERENCE_EPSILON,
    WATER_MOLAR_MASS_KG,
    epsilon_threshold,
    gap,
    gap_asymptotic,
    macroscopic_report,
    particles_in_mass,
)
from .configs import (
    Configuration,
    ConfigurationClass,
    String,
    Word,
    classify,
    enumerate_configurations,
    enumerate_words,
    parse_configuration,
    word_count,
    word_eigenvalue,
)
from .errors import CapacityError, ConfigParseError, DomainError, GhzGapError
from .experiment import (
    ExperimentConfig,
    ExperimentReport,
    LhvModel,
    QuantumModel,
    TrialRecord,
    iter_trials,
    min_trials_to_disprove,
    run_experiment,
    wilson_interval,
)
from .quantum import (
    NoiseModel,
    OracleEntry,
    OracleReport,
    OutcomeTuple,
    entangled_state,
    failure_probability_closed,
    failure_probability_exact,
    failure_probability_sum,
    joint_outcome_probabilities,
    parity_attenuation,
    product_observable_expectation,
    sample_outcome_batch,
    statevector_oracle,
)
from .strategies import (
    BadWordReport,
    CanonicalStrategy,
    DeterministicStrategy,
    bad_word_count_analytic,
    bad_word_count_naive,
    canonicalize,
    max_classical_mermin_sum,
    mermin_bound,
    mermin_sum,
    minimize_bad_words,
    minimize_bad_words_brute_force,
    predict_total,
)

__version__ = "0.1.0"

# Every public name above, and no submodule: the imports are the one list.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
