"""Entangled q-station measurements vs deterministic hidden-variable models.

The library answers one question at every scale from q = 2 to q ~ 1e27: how
often does the best per-station deterministic answer table fail to reproduce
the entangled state's predictions, how often does the real (error-prone)
quantum setup fail, and at what station count does the difference between
the two fall below any given experimental resolution.
"""

import importlib as _importlib

__version__ = "0.1.0"

#: Every public name, by the submodule that defines it. Importing the package
#: loads none of them: `__getattr__` imports a name's submodule on first use,
#: so a command pays only for the layers it runs.
_EXPORTS = {
    **dict.fromkeys(
        [
            "AVOGADRO",
            "CONSTITUENT_FACTORS",
            "GapReport",
            "MacroscopicReport",
            "REFERENCE_EPSILON",
            "WATER_MOLAR_MASS_KG",
            "epsilon_threshold",
            "gap",
            "gap_asymptotic",
            "macroscopic_report",
            "particles_in_mass",
        ],
        "asymptotics",
    ),
    **dict.fromkeys(
        [
            "Configuration",
            "ConfigurationClass",
            "String",
            "Word",
            "classify",
            "enumerate_configurations",
            "enumerate_words",
            "parse_configuration",
            "word_count",
            "word_eigenvalue",
        ],
        "configs",
    ),
    **dict.fromkeys(
        ["CapacityError", "ConfigParseError", "DomainError", "GhzGapError"], "errors"
    ),
    **dict.fromkeys(
        [
            "ExperimentConfig",
            "ExperimentReport",
            "LhvModel",
            "QuantumModel",
            "TrialRecord",
            "iter_trials",
            "min_trials_to_disprove",
            "run_experiment",
            "wilson_interval",
        ],
        "experiment",
    ),
    **dict.fromkeys(
        [
            "NoiseModel",
            "OracleEntry",
            "OracleReport",
            "OutcomeTuple",
            "entangled_state",
            "failure_probability_closed",
            "failure_probability_exact",
            "failure_probability_sum",
            "joint_outcome_probabilities",
            "parity_attenuation",
            "product_observable_expectation",
            "sample_outcome_batch",
            "statevector_oracle",
        ],
        "quantum",
    ),
    **dict.fromkeys(
        [
            "BadWordReport",
            "CanonicalStrategy",
            "DeterministicStrategy",
            "bad_word_count_analytic",
            "bad_word_count_naive",
            "canonicalize",
            "max_classical_mermin_sum",
            "mermin_bound",
            "mermin_sum",
            "minimize_bad_words",
            "minimize_bad_words_brute_force",
            "predict_total",
        ],
        "strategies",
    ),
}

#: Submodules that `ghzgap.<name>` reaches without an import of its own.
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
