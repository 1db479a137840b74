"""The public surface: the names that `from ghzgap import *` binds, and how
the record types among them validate and refuse assignment."""

import ast
import importlib
import inspect
import json
import math
import pathlib
import subprocess
import sys
import types
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import ghzgap
import ghzgap.cli  # noqa: F401  (cli loads some submodules; the star import still binds none)
from ghzgap import (
    CanonicalStrategy,
    CapacityError,
    Configuration,
    DeterministicStrategy,
    DomainError,
    ExperimentConfig,
    LhvModel,
    NoiseModel,
    OutcomeTuple,
    QuantumModel,
    Word,
)

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
        "stream_environment",
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


def test_export_table_names_the_defining_module():
    # `ghzgap.__getattr__` and, through it, `cli`'s lazy names resolve each
    # public name in the submodule this table gives; a stale entry would
    # fail only when a command first asks for the name.
    misplaced = []
    for name, module_name in ghzgap._EXPORTS.items():
        module = importlib.import_module(f"ghzgap.{module_name}")
        value = vars(module).get(name)
        defined = isinstance(value, (type, types.FunctionType))
        if value is None or (defined and value.__module__ != module.__name__):
            misplaced.append(f"{module_name}.{name}")
    assert misplaced == []


#: The cross-checks that `oracles` holds alone, after they left the modules
#: on the command path.
_ORACLE_ONLY_NAMES = (
    "DeterministicStrategy",
    "OutcomeTuple",
    "REPLAY_LIMIT",
    "TrialRecord",
    "canonicalize",
    "iter_trials",
    "mermin_sum",
)


def test_cross_checks_have_one_home():
    oracles = importlib.import_module("ghzgap.oracles")
    for module_name in ("quantum", "experiment", "strategies"):
        module = importlib.import_module(f"ghzgap.{module_name}")
        assert [name for name in _ORACLE_ONLY_NAMES if hasattr(module, name)] == [], module_name
    public = [name for name in _ORACLE_ONLY_NAMES if name in PUBLIC_NAMES]
    assert {ghzgap._EXPORTS[name] for name in public} == {"oracles"}
    assert all(getattr(ghzgap, name) is getattr(oracles, name) for name in public)


#: After a bare `import ghzgap` in a fresh process, prints as JSON which
#: submodules are loaded, `dir` and `__all__`, whether a name reached through
#: its submodule is the one the package gives, the error an unknown name
#: raises, and the names `from ghzgap import *` binds.
_LAZY_SURFACE_PROBE = """
import json, sys
import ghzgap
report = {
    "loaded": sorted(name for name in sys.modules if name.startswith("ghzgap.")),
    "dir": dir(ghzgap),
    "all": ghzgap.__all__,
    "same": ghzgap.experiment.run_experiment is ghzgap.run_experiment,
}
try:
    ghzgap.no_such_name
except AttributeError as exc:
    report["error"] = str(exc)
namespace = {}
exec("from ghzgap import *", namespace)
report["star"] = sorted(set(namespace) - {"__builtins__"})
print(json.dumps(report))
"""


def test_lazy_package_surface():
    result = subprocess.run(
        [sys.executable, "-c", _LAZY_SURFACE_PROBE], capture_output=True, text=True, check=True
    )
    report = json.loads(result.stdout)
    assert report["loaded"] == []
    assert set(report["all"]) == PUBLIC_NAMES
    assert set(report["all"]) <= set(report["dir"])
    assert report["same"] is True
    assert "ghzgap" in report["error"] and "no_such_name" in report["error"]
    assert set(report["star"]) == PUBLIC_NAMES


#: An int past int-to-text conversion: a message that echoes it must name it
#: another way (`configs._shown`).
_HUGE = 10**5000

#: One bad value for each check the validating types run, as
#: (constructor, arguments, error class).
_BAD_VALUES = {
    "configuration-q-low": (Configuration, (0, 0), DomainError),
    "configuration-q-high": (Configuration, (65, 0), CapacityError),
    "configuration-mask-high": (Configuration, (3, 8), DomainError),
    "configuration-mask-negative": (Configuration, (3, -1), DomainError),
    "configuration-mask-nan": (Configuration, (3, math.nan), DomainError),
    "configuration-mask-huge": (Configuration, (3, _HUGE), DomainError),
    "configuration-mask-huge-negative": (Configuration, (3, -_HUGE), DomainError),
    "configuration-mask-array": (Configuration, (3, np.array([1, 2])), DomainError),
    "word-eigenvalue": (Word, (0,), DomainError),
    "word-eigenvalue-float": (Word, (1.0,), DomainError),
    "word-eigenvalue-huge": (Word, (_HUGE,), DomainError),
    "word-eigenvalue-array": (Word, (np.array([1, 1]),), DomainError),
    "noise-negative": (NoiseModel, (-0.1,), DomainError),
    "noise-above-half": (NoiseModel, (0.6,), DomainError),
    "noise-nan": (NoiseModel, (math.nan,), DomainError),
    "noise-huge": (NoiseModel, (_HUGE,), DomainError),
    "noise-huge-negative": (NoiseModel, (-_HUGE,), DomainError),
    "noise-array": (NoiseModel, (np.array([0.1, 0.2]),), DomainError),
    "noise-array-one": (NoiseModel, (np.array([0.1]),), DomainError),
    "noise-string": (NoiseModel, ("0.1",), DomainError),
    "noise-decimal": (NoiseModel, (Decimal("0.1"),), DomainError),
    "outcome-empty": (OutcomeTuple, ((),), DomainError),
    "outcome-result": (OutcomeTuple, ((1, 0),), DomainError),
    "outcome-result-float": (OutcomeTuple, ((1.0, -1),), DomainError),
    "outcome-result-huge": (OutcomeTuple, ((1, _HUGE),), DomainError),
    "experiment-q": (ExperimentConfig, (0, QuantumModel(), 10, 1), DomainError),
    "experiment-trials": (ExperimentConfig, (3, QuantumModel(), 0, 1), DomainError),
    "experiment-trials-fraction": (ExperimentConfig, (3, QuantumModel(), 10.5, 1), DomainError),
    "experiment-trials-huge": (ExperimentConfig, (3, QuantumModel(), _HUGE, 1), DomainError),
    "experiment-trials-huge-negative": (
        ExperimentConfig,
        (3, QuantumModel(), -_HUGE, 1),
        DomainError,
    ),
    "experiment-seed": (ExperimentConfig, (3, QuantumModel(), 10, 1 << 64), DomainError),
    "experiment-seed-fraction": (ExperimentConfig, (3, QuantumModel(), 10, 2.5), DomainError),
    "experiment-seed-huge": (ExperimentConfig, (3, QuantumModel(), 10, _HUGE), DomainError),
    "experiment-seed-huge-negative": (
        ExperimentConfig,
        (3, QuantumModel(), 10, -_HUGE),
        DomainError,
    ),
    "experiment-ci-level": (ExperimentConfig, (3, QuantumModel(), 10, 1, 1.0), DomainError),
    "experiment-ci-level-huge": (
        ExperimentConfig,
        (3, QuantumModel(), 10, 1, _HUGE),
        DomainError,
    ),
    "experiment-ci-level-huge-negative": (
        ExperimentConfig,
        (3, QuantumModel(), 10, 1, -_HUGE),
        DomainError,
    ),
    "experiment-ci-level-array": (
        ExperimentConfig,
        (3, QuantumModel(), 10, 1, np.array([0.9, 0.95])),
        DomainError,
    ),
    "experiment-ci-level-decimal": (
        ExperimentConfig,
        (3, QuantumModel(), 1000, 1, Decimal("0.9")),
        DomainError,
    ),
    "experiment-strategy-q": (
        ExperimentConfig,
        (3, LhvModel(CanonicalStrategy(4, 1, 0)), 10, 1),
        DomainError,
    ),
    "deterministic-count": (DeterministicStrategy, (2, ((1, 1),)), DomainError),
    "deterministic-answer": (DeterministicStrategy, (1, ((1, 0),)), DomainError),
    "deterministic-answer-float": (DeterministicStrategy, (2, ((1.0, 1), (1, -1))), DomainError),
    "deterministic-pair-scalar": (DeterministicStrategy, (1, (1,)), DomainError),
    "deterministic-pair-long": (DeterministicStrategy, (1, ((1, 1, 1),)), DomainError),
    "deterministic-pair-short": (DeterministicStrategy, (2, ((1, -1), (1,))), DomainError),
    "deterministic-answers-int": (DeterministicStrategy, (2, 5), DomainError),
    "deterministic-mask-negative": (DeterministicStrategy.from_masks, (2, -1, 0), DomainError),
    "deterministic-mask-high": (DeterministicStrategy.from_masks, (2, 7, 0), DomainError),
    "deterministic-b-mask-high": (DeterministicStrategy.from_masks, (2, 0, 4), DomainError),
    "deterministic-mask-float": (DeterministicStrategy.from_masks, (2, 1.0, 0), DomainError),
    "canonical-sign": (CanonicalStrategy, (3, 0, 0), DomainError),
    "canonical-sign-float": (CanonicalStrategy, (3, 1.0, 0), DomainError),
    "canonical-mask": (CanonicalStrategy, (3, 1, 8), DomainError),
    "canonical-mask-nan": (CanonicalStrategy, (3, 1, math.nan), DomainError),
    "canonical-mask-huge": (CanonicalStrategy, (3, 1, _HUGE), DomainError),
    "canonical-mask-huge-negative": (CanonicalStrategy, (3, 1, -_HUGE), DomainError),
}


@pytest.mark.parametrize("make, args, error", _BAD_VALUES.values(), ids=_BAD_VALUES)
def test_validating_types_reject_bad_values(make, args, error):
    with pytest.raises(error):
        make(*args)


#: Bad arguments other than a station count, as (function, arguments, error
#: class): none may escape as OverflowError, a math error or a wrong answer.
_BAD_CALLS = {
    "analytic-m-fraction": (ghzgap.bad_word_count_analytic, (5, 1, 2.5), DomainError),
    "analytic-sign-float": (ghzgap.bad_word_count_analytic, (3, 1.0, 0), DomainError),
    "analytic-m-huge": (ghzgap.bad_word_count_analytic, (5, 1, _HUGE), DomainError),
    "analytic-m-huge-negative": (ghzgap.bad_word_count_analytic, (5, 1, -_HUGE), DomainError),
    "sample-size-fraction": (
        ghzgap.sample_outcome_batch,
        (Configuration(3, 1), NoiseModel(0.0), np.random.default_rng(0), 2.5),
        DomainError,
    ),
    "sample-size-over-cap": (
        ghzgap.sample_outcome_batch,
        (Configuration(3, 1), NoiseModel(0.0), np.random.default_rng(0), (1 << 20) + 1),
        CapacityError,
    ),
    "sample-size-huge": (
        ghzgap.sample_outcome_batch,
        (Configuration(3, 1), NoiseModel(0.0), np.random.default_rng(0), _HUGE),
        CapacityError,
    ),
    "sample-size-huge-negative": (
        ghzgap.sample_outcome_batch,
        (Configuration(3, 1), NoiseModel(0.0), np.random.default_rng(0), -_HUGE),
        DomainError,
    ),
    "exact-epsilon-huge": (ghzgap.failure_probability_exact, (3, _HUGE), DomainError),
    "exact-epsilon-huge-negative": (ghzgap.failure_probability_exact, (3, -_HUGE), DomainError),
    "particles-mass-huge": (ghzgap.particles_in_mass, (10**400,), DomainError),
    "particles-mass-huger": (ghzgap.particles_in_mass, (_HUGE,), DomainError),
    "particles-mass-huge-negative": (ghzgap.particles_in_mass, (-_HUGE,), DomainError),
    "particles-mass-tiny": (ghzgap.particles_in_mass, (Fraction(1, _HUGE),), DomainError),
    # a value within the float range, in terms past int-to-text conversion,
    # whose constituent count is not
    "particles-mass-count-huge": (
        ghzgap.particles_in_mass,
        (Fraction(_HUGE + 1, 10**4700),),
        DomainError,
    ),
    "wilson-trials-huge": (ghzgap.wilson_interval, (1, 10**400), DomainError),
    "wilson-trials-huger": (ghzgap.wilson_interval, (1, _HUGE), DomainError),
    "wilson-trials-huge-negative": (ghzgap.wilson_interval, (1, -_HUGE), DomainError),
    "wilson-successes-fraction": (ghzgap.wilson_interval, (1.5, 10), DomainError),
    "wilson-successes-huge": (ghzgap.wilson_interval, (_HUGE, 10), DomainError),
    "wilson-successes-huge-negative": (ghzgap.wilson_interval, (-_HUGE, 10), DomainError),
    "wilson-trials-fraction": (ghzgap.wilson_interval, (1, 10.5), DomainError),
    "wilson-level-huge": (ghzgap.wilson_interval, (1, 10, _HUGE), DomainError),
    "wilson-level-huge-negative": (ghzgap.wilson_interval, (1, 10, -_HUGE), DomainError),
    "wilson-level-array": (ghzgap.wilson_interval, (1, 10, np.array([0.9, 0.95])), DomainError),
    "eigenvalue-r-count-float": (ghzgap.word_eigenvalue, (3.0,), DomainError),
    "eigenvalue-r-count-huge": (ghzgap.word_eigenvalue, (_HUGE,), DomainError),
    "eigenvalue-r-count-array": (ghzgap.word_eigenvalue, (np.array([3, 5]),), DomainError),
    "threshold-delta-tiny": (ghzgap.epsilon_threshold, (100, Fraction(1, 10**400)), DomainError),
    "threshold-delta-tinier": (ghzgap.epsilon_threshold, (100, Fraction(1, _HUGE)), DomainError),
    "threshold-delta-huge": (ghzgap.epsilon_threshold, (100, _HUGE), DomainError),
    "threshold-delta-huge-negative": (ghzgap.epsilon_threshold, (100, -_HUGE), DomainError),
    "threshold-delta-array": (
        ghzgap.epsilon_threshold,
        (100, np.array([0.01, 0.02])),
        DomainError,
    ),
    "macroscopic-delta-tiny": (ghzgap.macroscopic_report, (4, Fraction(1, 10**400)), DomainError),
    "macroscopic-delta-huge": (ghzgap.macroscopic_report, (4, _HUGE), DomainError),
    "macroscopic-delta-array": (
        ghzgap.macroscopic_report,
        (4.0, np.array([0.01, 0.02])),
        DomainError,
    ),
    "gap-q-array": (ghzgap.gap, (np.array([3, 4]), NoiseModel(0.1)), DomainError),
    "gap-q-array-one": (ghzgap.gap, (np.array([3]), NoiseModel(0.1)), DomainError),
    "gap-asymptotic-q-array": (
        ghzgap.gap_asymptotic,
        (np.array([3.0, 4.0]), NoiseModel(0.1)),
        DomainError,
    ),
    "gap-asymptotic-q-string": (ghzgap.gap_asymptotic, ("3", NoiseModel(0.1)), DomainError),
    "particles-mass-array": (ghzgap.particles_in_mass, (np.array([1.0, 2.0]),), DomainError),
    "disprove-p-huge": (ghzgap.min_trials_to_disprove, (_HUGE, 0.5), DomainError),
    "disprove-p-huge-negative": (ghzgap.min_trials_to_disprove, (-_HUGE, 0.5), DomainError),
    "disprove-confidence-huge": (ghzgap.min_trials_to_disprove, (0.5, _HUGE), DomainError),
    "disprove-confidence-huge-negative": (
        ghzgap.min_trials_to_disprove,
        (0.5, -_HUGE),
        DomainError,
    ),
    "disprove-p-decimal": (ghzgap.min_trials_to_disprove, (Decimal("0.1"), 0.9), DomainError),
    "disprove-confidence-decimal": (
        ghzgap.min_trials_to_disprove,
        (0.1, Decimal("0.9")),
        DomainError,
    ),
    "threshold-delta-decimal": (ghzgap.epsilon_threshold, (100, Decimal("0.01")), DomainError),
    "particles-mass-decimal": (ghzgap.particles_in_mass, (Decimal("4"),), DomainError),
    "wilson-level-decimal": (ghzgap.wilson_interval, (1, 10, Decimal("0.9")), DomainError),
    "gap-asymptotic-q-decimal": (
        ghzgap.gap_asymptotic,
        (Decimal("100"), NoiseModel(0.1)),
        DomainError,
    ),
    "disprove-p-array": (ghzgap.min_trials_to_disprove, (np.array([0.1, 0.2]), 0.9), DomainError),
    "disprove-confidence-array": (
        ghzgap.min_trials_to_disprove,
        (0.5, np.array([0.9, 0.95])),
        DomainError,
    ),
}


@pytest.mark.parametrize("call, args, error", _BAD_CALLS.values(), ids=_BAD_CALLS)
def test_functions_reject_bad_arguments(call, args, error):
    with pytest.raises(error):
        call(*args)


#: Hostile station counts, and what each gate does with them: the integer
#: gate (`configs._check_int_q`) and the real-q check (`quantum._check_q`).
#: None means the call answers. Every value is refused before anything of
#: size 2^q is built.
_HOSTILE_Q = {
    "nan": (math.nan, DomainError, DomainError),
    "inf": (math.inf, DomainError, DomainError),
    "-inf": (-math.inf, DomainError, DomainError),
    "-0.0": (-0.0, DomainError, DomainError),
    "2.5": (2.5, DomainError, None),
    "10**400": (10**400, CapacityError, DomainError),
    "10**5000": (10**5000, CapacityError, DomainError),  # beyond int-to-text conversion
    "-10**5000": (-(10**5000), DomainError, DomainError),
    "1/10**400": (Fraction(1, 10**400), DomainError, DomainError),
    "1/10**5000": (Fraction(1, 10**5000), DomainError, DomainError),  # beyond its repr
    "True": (True, None, None),
}

#: Every public callable that takes a station count, called with q.
_INTEGER_Q_CALLS = {
    "Configuration": lambda q: Configuration(q, 0),
    "ExperimentConfig": lambda q: ExperimentConfig(q, QuantumModel(), 10, 1),
    "DeterministicStrategy": lambda q: DeterministicStrategy(q, ((1, 1),)),
    "DeterministicStrategy.from_masks": lambda q: DeterministicStrategy.from_masks(q, 0, 0),
    "CanonicalStrategy": lambda q: CanonicalStrategy(q, 1, 0),
    "word_count": ghzgap.word_count,
    "enumerate_configurations": ghzgap.enumerate_configurations,
    "enumerate_words": lambda q: next(ghzgap.enumerate_words(q)),
    "bad_word_count_analytic": lambda q: ghzgap.bad_word_count_analytic(q, 1, 0),
    "minimize_bad_words": ghzgap.minimize_bad_words,
    "mermin_bound": ghzgap.mermin_bound,
    "max_classical_mermin_sum": ghzgap.max_classical_mermin_sum,
    "minimize_bad_words_brute_force": ghzgap.minimize_bad_words_brute_force,
    "entangled_state": ghzgap.entangled_state,
    "statevector_oracle": ghzgap.statevector_oracle,
    "failure_probability_sum": lambda q: ghzgap.failure_probability_sum(q, NoiseModel(0.1)),
    "failure_probability_exact": lambda q: ghzgap.failure_probability_exact(q, Fraction(1, 10)),
}
_REAL_Q_CALLS = {
    "parity_attenuation": lambda q: ghzgap.parity_attenuation(q, NoiseModel(0.1)),
    "failure_probability_closed": lambda q: ghzgap.failure_probability_closed(q, NoiseModel(0.1)),
    "gap_asymptotic": lambda q: ghzgap.gap_asymptotic(q, NoiseModel(0.1)),
    "gap": lambda q: ghzgap.gap(q, NoiseModel(0.1)),
    "epsilon_threshold": lambda q: ghzgap.epsilon_threshold(q, 0.01),
}
_STATION_CASES = {
    f"{name}-{label}": (call, q, errors[0 if integer else 1])
    for integer, calls in ((True, _INTEGER_Q_CALLS), (False, _REAL_Q_CALLS))
    for name, call in calls.items()
    for label, (q, *errors) in _HOSTILE_Q.items()
}


@pytest.mark.parametrize("call, q, error", _STATION_CASES.values(), ids=_STATION_CASES)
def test_station_counts_are_gated(call, q, error):
    if error is None:
        call(q)
    else:
        with pytest.raises(error):
            call(q)


def test_validating_records_store_exact_ints():
    # each integer field holds what the gate returns, not the caller's object
    cfg = ExperimentConfig(3, QuantumModel(), np.int64(10), np.uint64(1))
    values = {
        "r_mask": Configuration(3, True).r_mask,
        "t_mask": CanonicalStrategy(3, 1, np.int64(5)).t_mask,
        "trials": cfg.trials,
        "master_seed": cfg.master_seed,
        "report trials": ghzgap.run_experiment(cfg).trials,
    }
    assert {name: type(value) for name, value in values.items()} == dict.fromkeys(values, int)
    assert (cfg.trials, cfg.master_seed, values["r_mask"]) == (10, 1, 1)


def test_no_module_imports_the_oracles():
    # The cross-checks stay off every command's path by construction: no
    # module of the package imports `oracles`; only the package's table of
    # lazy names points at it.
    importers = []
    for path in sorted(pathlib.Path(ghzgap.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any("oracles" in name.split(".") for name in names):
                importers.append(f"{path.name}:{node.lineno}")
    assert importers == []
    assert "oracles" in ghzgap._EXPORTS.values()


def _instances():
    """One instance of every record type the package defines."""
    config = Configuration(3, 5)
    strategy = CanonicalStrategy(3, 1, 1)
    cfg = ExperimentConfig(3, LhvModel(strategy), 10, 1)
    return [
        config,
        Word(1),
        ghzgap.String(),
        NoiseModel(0.1),
        OutcomeTuple((1, -1, -1)),
        ghzgap.statevector_oracle(1),
        ghzgap.statevector_oracle(1).entries[0],
        DeterministicStrategy(1, ((1, -1),)),
        strategy,
        ghzgap.minimize_bad_words(3),
        QuantumModel(),
        LhvModel(),
        cfg,
        next(ghzgap.iter_trials(cfg)),
        ghzgap.run_experiment(cfg),
        ghzgap.gap(3, NoiseModel(0.1)),
        ghzgap.macroscopic_report(4.0, 0.01),
    ]


@pytest.mark.parametrize("instance", _instances(), ids=lambda value: type(value).__name__)
def test_records_are_immutable(instance):
    for name in instance._fields:
        with pytest.raises(AttributeError):
            setattr(instance, name, getattr(instance, name))
    with pytest.raises(AttributeError):
        instance.extra = 1


def test_records_are_tuples():
    # Deliberate since the records became named tuples: a record equals the
    # plain tuple of its fields, unpacks, and has _asdict and _replace.
    config = Configuration(3, 5)
    assert config == (3, 5) and tuple(config) == (3, 5)
    assert config._asdict() == {"q": 3, "r_mask": 5}
    assert config._replace(r_mask=6) == Configuration(3, 6)
    assert str(config) == "rlr" and repr(config) == "Configuration(q=3, r_mask=5)"
    assert (Word.kind, ghzgap.String.kind) == ("word", "string")


_BENCH = pathlib.Path(__file__).parents[1] / "bench"


def _unresolved_bench_uses(path):
    """What a bench module uses of ghzgap and ghzgap lacks: each name it
    imports from a ghzgap module, each `module.name` on a module it imports
    so, and each keyword it passes to a callable it reaches either way."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ghzgap"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(module, alias.name, None)
                if value is None:
                    missing.append(f"{node.module}.{alias.name}")
                elif bound.setdefault(alias.asname or alias.name, value) is not value:
                    missing.append(f"{alias.name} bound twice")  # the walk cannot tell apart
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner = bound.get(node.value.id)
            if isinstance(owner, types.ModuleType) and not hasattr(owner, node.attr):
                missing.append(f"{owner.__name__}.{node.attr}")
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            target = bound.get(node.func.id)
        elif isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name):
            target = getattr(bound.get(node.func.value.id), node.func.attr, None)
        else:
            continue
        if callable(target) and not isinstance(target, types.ModuleType):
            parameters = inspect.signature(target).parameters.values()
            if any(p.kind is p.VAR_KEYWORD for p in parameters):
                continue
            names = {p.name for p in parameters if p.kind is not p.POSITIONAL_ONLY}
            missing += [
                f"{target.__module__}.{target.__qualname__}({k.arg}=...)"
                for k in node.keywords
                if k.arg is not None and k.arg not in names
            ]
    return missing


def test_names_the_benchmark_traces_resolve():
    # bench/spans.py wraps these names on these modules for `--trace 1`; the
    # bench files are read, not imported, because they load numpy.
    tree = ast.parse((_BENCH / "spans.py").read_text(encoding="utf-8"))
    (boundaries,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["LAYER_BOUNDARIES"]
    ]
    assert boundaries
    missing = [
        f"{module}.{name}"
        for module, names in boundaries.items()
        for name in names
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []
    # The probes and workloads call ghzgap by these names and keywords.
    for name in ("probes.py", "workloads.py"):
        assert _unresolved_bench_uses(_BENCH / name) == [], name
