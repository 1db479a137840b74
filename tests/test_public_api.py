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


#: One bad value for each check the validating types run, as
#: (constructor, arguments, error class).
_BAD_VALUES = {
    "configuration-q-low": (Configuration, (0, 0), CapacityError),
    "configuration-q-high": (Configuration, (65, 0), CapacityError),
    "configuration-mask-high": (Configuration, (3, 8), DomainError),
    "configuration-mask-negative": (Configuration, (3, -1), DomainError),
    "word-eigenvalue": (Word, (0,), DomainError),
    "noise-negative": (NoiseModel, (-0.1,), DomainError),
    "noise-above-half": (NoiseModel, (0.6,), DomainError),
    "noise-nan": (NoiseModel, (math.nan,), DomainError),
    "outcome-empty": (OutcomeTuple, ((),), DomainError),
    "outcome-result": (OutcomeTuple, ((1, 0),), DomainError),
    "experiment-q": (ExperimentConfig, (0, QuantumModel(), 10, 1), DomainError),
    "experiment-trials": (ExperimentConfig, (3, QuantumModel(), 0, 1), DomainError),
    "experiment-seed": (ExperimentConfig, (3, QuantumModel(), 10, 1 << 64), DomainError),
    "experiment-ci-level": (ExperimentConfig, (3, QuantumModel(), 10, 1, 1.0), DomainError),
    "experiment-strategy-q": (
        ExperimentConfig,
        (3, LhvModel(CanonicalStrategy(4, 1, 0)), 10, 1),
        DomainError,
    ),
    "deterministic-count": (DeterministicStrategy, (2, ((1, 1),)), DomainError),
    "deterministic-answer": (DeterministicStrategy, (1, ((1, 0),)), DomainError),
    "canonical-sign": (CanonicalStrategy, (3, 0, 0), DomainError),
    "canonical-mask": (CanonicalStrategy, (3, 1, 8), DomainError),
}


@pytest.mark.parametrize("make, args, error", _BAD_VALUES.values(), ids=_BAD_VALUES)
def test_validating_types_reject_bad_values(make, args, error):
    with pytest.raises(error):
        make(*args)


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
