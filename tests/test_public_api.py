"""The public surface: the names that `from ghzgap import *` binds."""

import types

import ghzgap.cli  # noqa: F401  (loads every submodule before the star import)

#: The package's public names. Removed helpers: classical_failure_probability,
#: gap_exact_fraction, gap_asymptotic_fraction, sample_outcomes,
#: trials_to_distinguish.
PUBLIC_NAMES = frozenset(
    [
        "AVOGADRO",
        "BadWordReport",
        "CONSTITUENT_FACTORS",
        "CanonicalStrategy",
        "CapacityError",
        "ConfigParseError",
        "Configuration",
        "ConfigurationClass",
        "DeterministicStrategy",
        "DomainError",
        "ExperimentConfig",
        "ExperimentReport",
        "GapReport",
        "GhzGapError",
        "LhvModel",
        "MacroscopicReport",
        "NoiseModel",
        "OracleEntry",
        "OracleReport",
        "OutcomeTuple",
        "QuantumModel",
        "REFERENCE_EPSILON",
        "String",
        "TrialRecord",
        "WATER_MOLAR_MASS_KG",
        "Word",
        "bad_word_count_analytic",
        "bad_word_count_naive",
        "canonicalize",
        "classify",
        "entangled_state",
        "enumerate_configurations",
        "enumerate_words",
        "epsilon_threshold",
        "failure_probability_closed",
        "failure_probability_exact",
        "failure_probability_sum",
        "gap",
        "gap_asymptotic",
        "iter_trials",
        "joint_outcome_probabilities",
        "macroscopic_report",
        "max_classical_mermin_sum",
        "mermin_bound",
        "mermin_sum",
        "min_trials_to_disprove",
        "minimize_bad_words",
        "minimize_bad_words_brute_force",
        "parity_attenuation",
        "parse_configuration",
        "particles_in_mass",
        "predict_total",
        "product_observable_expectation",
        "run_experiment",
        "sample_outcome_batch",
        "statevector_oracle",
        "wilson_interval",
        "word_count",
        "word_eigenvalue",
    ]
)


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from ghzgap import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == PUBLIC_NAMES
    assert not [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]
