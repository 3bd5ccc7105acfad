"""Run configuration loaded from a single YAML or JSON file.

One file drives every subcommand; command-line flags override individual
values. Unknown keys anywhere in the document are rejected before any
computation starts.

Each options dataclass below is the only place its section's keys, defaults
and scalar types are written. `_parse_section` takes the allowed keys and
defaults from `dataclasses.fields` and each scalar's type from the field's
annotation, where `X | None` means the key may be null. Only the structured
keys (schema, engineered, models, classes, features) have parsers of their
own; a field whose type is a dataclass is parsed as a nested section. The
value checks live in each dataclass's `__post_init__`, so the flag overrides
pass the same checks, and `config_echo` is `asdict` of the same objects.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Any, get_args, get_type_hints

import yaml

from .density import BANDWIDTH_POLICIES
from .errors import ConfigError, DataError
from .preprocess import EngineeredFeature
from .tabular import ColumnSchema, validate_schema
from .trees import ModelSpec
from .wytest import WyConfig

_GRID_KEYS = {
    "tree": ("max_depth", "min_leaf", "seed"),
    "forest": ("n_trees", "max_depth", "min_leaf", "max_features", "bootstrap", "seed"),
    "gbdt": (
        "rounds",
        "learning_rate",
        "max_depth",
        "n_bins",
        "lambda_reg",
        "min_child_weight",
        "seed",
    ),
    "majority": ("seed",),
}


def _is_int(value: Any, low: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# Per grid key: a test every candidate value must pass, and what it asks for.
_GRID_VALUES = {
    "n_trees": (lambda v: _is_int(v, 1), "an integer >= 1"),
    "rounds": (lambda v: _is_int(v, 1), "an integer >= 1"),
    "min_leaf": (lambda v: _is_int(v, 1), "an integer >= 1"),
    "n_bins": (lambda v: _is_int(v, 2), "an integer >= 2"),
    "seed": (lambda v: _is_int(v, 0), "an integer >= 0"),
    "max_depth": (lambda v: v is None or _is_int(v, 0), "an integer >= 0 or null"),
    "max_features": (
        lambda v: v is None or v == "sqrt" or _is_int(v, 1),
        '"sqrt", an integer >= 1 or null',
    ),
    "learning_rate": (_is_number, "a number"),
    "lambda_reg": (_is_number, "a number"),
    "min_child_weight": (_is_number, "a number"),
    "bootstrap": (lambda v: isinstance(v, bool), "a boolean"),
}


def _expect_mapping(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(value).__name__}")
    return value


def _reject_unknown(mapping: dict, allowed: tuple[str, ...], where: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(map(repr, unknown))}")


def _scalar(value: Any, hint: Any, where: str):
    """Check one scalar against its field's type; ints widen to float."""
    kinds = get_args(hint)
    if value is None and type(None) in kinds:
        return None
    kind = next((k for k in kinds if k is not type(None)), hint)
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if isinstance(value, bool) and kind in (int, float):
        raise ConfigError(f"{where} must be a number, got a boolean")
    if not isinstance(value, kind):
        raise ConfigError(
            f"{where} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


@dataclass(frozen=True)
class RfeOptions:
    """Recursive-elimination settings and the wrapped forest's shape."""

    keep_threshold: float = 0.025
    step: int = 1
    n_trees: int = 30
    max_depth: int | None = None

    def __post_init__(self) -> None:
        # importances sum to 1, so a threshold above 1 would select nothing
        if not 0.0 <= self.keep_threshold <= 1.0:
            raise ConfigError(f"keep_threshold must be in [0, 1], got {self.keep_threshold}")
        if self.step < 1 or self.n_trees < 1:
            raise ConfigError(
                f"step and n_trees must be >= 1, got {self.step} and {self.n_trees}"
            )
        if self.max_depth is not None and self.max_depth < 0:
            raise ConfigError(f"max_depth must be >= 0 or null, got {self.max_depth}")


@dataclass(frozen=True)
class PreprocessOptions:
    test_fraction: float = 0.2
    dedup: bool = True
    scale: bool = True
    correlation_threshold: float = 0.7
    engineered: tuple[EngineeredFeature, ...] = ()
    rfe: RfeOptions = field(default_factory=RfeOptions)

    def __post_init__(self) -> None:
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if not 0.0 < self.correlation_threshold <= 1.0:
            raise ConfigError(
                f"correlation_threshold must be in (0, 1], got {self.correlation_threshold}"
            )


@dataclass(frozen=True)
class CvOptions:
    """Fold count and one parameter grid per model family."""

    k: int = 10
    models: dict[str, dict[str, list]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ConfigError(f"k must be >= 2, got {self.k}")


@dataclass(frozen=True)
class DensityOptions:
    """Shape-summary settings; features default to the selected numeric set."""

    policy: str = "scott"
    grid_size: int = 512
    features: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.policy not in BANDWIDTH_POLICIES:
            raise ConfigError(f"unknown bandwidth policy {self.policy!r}")
        if self.grid_size < 2:
            raise ConfigError("grid_size must be >= 2")
        # an empty list would summarize nothing; null means the selected set
        if self.features == ():
            raise ConfigError("features must be a non-empty list of feature names")


@dataclass(frozen=True)
class WyOptions:
    classes: tuple[str, str] | None = None
    permutations: int = 1000
    alpha: float = 0.05
    bandwidth: str = "cv"
    grid_size: int = 512
    cv_candidates: int = 10
    cv_folds: int = 3
    refit_bandwidths: bool = True
    features: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.features == ():
            raise ConfigError("features must be a non-empty list of feature names")
        # WyConfig holds the checks; a stand-in pair is used until --classes
        # supplies the real one.
        self._wy_config(self.classes or ("a", "b"), seed=0)

    def to_wy_config(self, seed: int) -> WyConfig:
        if self.classes is None:
            raise ConfigError(
                "the permutation test needs a class pair; set wy.classes in the "
                "config or pass --classes V,W"
            )
        return self._wy_config(self.classes, seed)

    def _wy_config(self, classes: tuple[str, str], seed: int) -> WyConfig:
        own = {f.name for f in fields(self)}
        shared = {
            f.name: getattr(self, f.name) for f in fields(WyConfig) if f.name in own
        }
        try:
            return WyConfig(
                class_a=classes[0],
                class_b=classes[1],
                bandwidth_policy=self.bandwidth,
                seed=seed,
                **shared,
            )
        except DataError as exc:
            raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs: paths, schema, seeds, and per-stage options."""

    input: Path
    schema: tuple[ColumnSchema, ...]
    output: Path = Path("out")
    seed: int = 0
    threads: int = 1
    preprocess: PreprocessOptions = field(default_factory=PreprocessOptions)
    cv: CvOptions = field(default_factory=CvOptions)
    density: DensityOptions = field(default_factory=DensityOptions)
    wy: WyOptions = field(default_factory=WyOptions)

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")


def _parse_path(value: Any, where: str) -> Path:
    return Path(_scalar(value, str, where))


def _parse_schema(section: Any, where: str) -> tuple[ColumnSchema, ...]:
    section = _expect_mapping(section, where)
    if not section:
        raise ConfigError(f"{where} must name at least one column")
    columns = []
    for name, value in section.items():
        entry = f"{where}.{name}"
        try:
            if isinstance(value, str):
                columns.append(ColumnSchema(name=name, role=value))
            else:
                value = _expect_mapping(value, entry)
                _reject_unknown(value, ("role", "encoding"), entry)
                if "role" not in value:
                    raise ConfigError(f"{entry} needs a role")
                encoding = None
                if "encoding" in value:
                    encoding = _scalar(value["encoding"], str, f"{entry}.encoding")
                columns.append(
                    ColumnSchema(
                        name=name,
                        role=_scalar(value["role"], str, f"{entry}.role"),
                        encoding=encoding,
                    )
                )
        except DataError as exc:
            raise ConfigError(f"{entry}: {exc}") from exc
    try:
        validate_schema(columns)
    except DataError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return tuple(columns)


def _parse_engineered(section: Any, where: str) -> tuple[EngineeredFeature, ...]:
    if not isinstance(section, list):
        raise ConfigError(f"{where} must be a list")
    return tuple(
        _parse_section(EngineeredFeature, item, f"{where}[{i}]")
        for i, item in enumerate(section)
    )


def _parse_models(section: Any, where: str) -> dict[str, dict[str, list]]:
    section = _expect_mapping(section, where)
    models: dict[str, dict[str, list]] = {}
    for family, grid in section.items():
        entry = f"{where}.{family}"
        if family not in ModelSpec.VALID_FAMILIES:
            raise ConfigError(
                f"{entry}: unknown model family (expected one of "
                f"{', '.join(ModelSpec.VALID_FAMILIES)})"
            )
        grid = _expect_mapping(grid, entry)
        _reject_unknown(grid, _GRID_KEYS[family], entry)
        parsed: dict[str, list] = {}
        for param, values in grid.items():
            if not isinstance(values, list) or not values:
                raise ConfigError(
                    f"{entry}.{param} must be a non-empty list of candidate values"
                )
            valid, want = _GRID_VALUES[param]
            for value in values:
                if not valid(value):
                    raise ConfigError(f"{entry}.{param}: {value!r} is not {want}")
            parsed[param] = values
        models[family] = parsed
    return models


def _parse_class_pair(value: Any, where: str) -> tuple[str, str]:
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not all(isinstance(v, str) for v in value)
    ):
        raise ConfigError(f"{where} must be a list of two class names")
    return (value[0], value[1])


def _parse_feature_list(value: Any, where: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{where} must be a list of feature names")
    return tuple(value)


# Keys whose values are structured, each with its own parser; every other
# key is a scalar checked against its field's type, or a nested section.
_HOOKS = {
    "input": _parse_path,
    "output": _parse_path,
    "schema": _parse_schema,
    "engineered": _parse_engineered,
    "models": _parse_models,
    "classes": _parse_class_pair,
    "features": _parse_feature_list,
}


def _parse_section(options: type, section: Any, where: str):
    """Build an options dataclass from one mapping of the document.

    The allowed keys, the required ones and the defaults come from the
    dataclass's fields, and each scalar's type from its annotation. A value
    error from the dataclass's own checks names the section.
    """
    section = _expect_mapping(section, where)
    names = tuple(f.name for f in fields(options))
    _reject_unknown(section, names, where)
    for f in fields(options):
        if f.name not in section and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where} needs {f.name!r}")
    hints = get_type_hints(options)
    values = {}
    for key in names:
        if key not in section:
            continue
        entry = f"{where}.{key}"
        if key in _HOOKS:
            values[key] = _HOOKS[key](section[key], entry)
        elif is_dataclass(hints[key]):
            values[key] = _parse_section(hints[key], section[key], entry)
        else:
            values[key] = _scalar(section[key], hints[key], entry)
    try:
        return options(**values)
    except (ConfigError, DataError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_config(doc: Any, base_dir: Path | None = None) -> RunConfig:
    """Validate a parsed document and build a RunConfig.

    Relative input/output paths are resolved against base_dir (the config
    file's directory) when given.
    """
    cfg = _parse_section(RunConfig, doc, "config")
    if base_dir is None:
        return cfg
    # joining keeps an absolute path as it is
    return replace(cfg, input=base_dir / cfg.input, output=base_dir / cfg.output)


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a YAML (.yaml/.yml) or JSON (.json) config file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    suffix = path.suffix.lower()
    try:
        if suffix in (".yaml", ".yml"):
            doc = yaml.safe_load(text)
        elif suffix == ".json":
            doc = json.loads(text)
        else:
            raise ConfigError(
                f"unsupported config extension {suffix!r} (use .yaml, .yml, or .json)"
            )
    except (yaml.YAMLError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return parse_config(doc, base_dir=path.parent)


def apply_overrides(
    cfg: RunConfig,
    seed: int | None = None,
    out: str | None = None,
    threads: int | None = None,
    classes: tuple[str, str] | None = None,
    permutations: int | None = None,
    bandwidth: str | None = None,
    alpha: float | None = None,
) -> RunConfig:
    """Overlay command-line flag values onto a loaded config.

    The flag values pass the same checks as the config's own values.
    """
    def given(**flags) -> dict:
        return {key: value for key, value in flags.items() if value is not None}

    wy = replace(
        cfg.wy,
        **given(classes=classes, permutations=permutations, bandwidth=bandwidth, alpha=alpha),
    )
    output = None if out is None else Path(out)
    return replace(cfg, wy=wy, **given(seed=seed, output=output, threads=threads))


def config_echo(cfg: RunConfig) -> dict:
    """JSON-serializable echo of the effective configuration."""
    return asdict(cfg) | {"input": str(cfg.input), "output": str(cfg.output)}
