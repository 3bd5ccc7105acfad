"""Run configuration loaded from a single YAML or JSON file.

One file drives every subcommand; command-line flags override individual
values. Unknown keys anywhere in the document are rejected before any
computation starts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

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


def _get(
    mapping: dict,
    key: str,
    kind: type | tuple[type, ...],
    where: str,
    default,
    nullable: bool = False,
):
    if key not in mapping:
        return default
    value = mapping[key]
    if value is None and nullable:
        return None
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if isinstance(value, bool) and kind in (int, float):
        raise ConfigError(f"{where}.{key} must be a number, got a boolean")
    if not isinstance(value, kind):
        want = kind.__name__ if isinstance(kind, type) else "/".join(
            k.__name__ for k in kind
        )
        raise ConfigError(
            f"{where}.{key} must be {want}, got {type(value).__name__}"
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
        try:
            return WyConfig(
                class_a=classes[0],
                class_b=classes[1],
                permutations=self.permutations,
                alpha=self.alpha,
                bandwidth_policy=self.bandwidth,
                grid_size=self.grid_size,
                seed=seed,
                cv_candidates=self.cv_candidates,
                cv_folds=self.cv_folds,
                refit_bandwidths=self.refit_bandwidths,
            )
        except DataError as exc:
            raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs: paths, schema, seeds, and per-stage options."""

    input: Path
    output: Path
    schema: tuple[ColumnSchema, ...]
    seed: int = 0
    threads: int = 1
    preprocess: PreprocessOptions = field(default_factory=PreprocessOptions)
    cv: CvOptions = field(default_factory=CvOptions)
    density: DensityOptions = field(default_factory=DensityOptions)
    wy: WyOptions = field(default_factory=WyOptions)


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
                columns.append(
                    ColumnSchema(
                        name=name,
                        role=_get(value, "role", str, entry, None),
                        encoding=_get(value, "encoding", str, entry, None),
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
    out = []
    for i, item in enumerate(section):
        entry = f"{where}[{i}]"
        item = _expect_mapping(item, entry)
        _reject_unknown(item, ("source", "transform", "exponent"), entry)
        for key in ("source", "transform"):
            if key not in item:
                raise ConfigError(f"{entry} needs {key!r}")
        try:
            out.append(
                EngineeredFeature(
                    source=_get(item, "source", str, entry, None),
                    transform=_get(item, "transform", str, entry, None),
                    exponent=_get(item, "exponent", float, entry, None),
                )
            )
        except DataError as exc:
            raise ConfigError(f"{entry}: {exc}") from exc
    return tuple(out)


def _parse_rfe(section: Any, where: str) -> RfeOptions:
    section = _expect_mapping(section, where)
    _reject_unknown(section, ("keep_threshold", "step", "n_trees", "max_depth"), where)
    return _checked(
        RfeOptions,
        where,
        keep_threshold=_get(section, "keep_threshold", float, where, 0.025),
        step=_get(section, "step", int, where, 1),
        n_trees=_get(section, "n_trees", int, where, 30),
        max_depth=_get(section, "max_depth", int, where, None, nullable=True),
    )


def _parse_preprocess(section: Any, where: str) -> PreprocessOptions:
    section = _expect_mapping(section, where)
    allowed = (
        "test_fraction",
        "dedup",
        "scale",
        "correlation_threshold",
        "engineered",
        "rfe",
    )
    _reject_unknown(section, allowed, where)
    engineered: tuple[EngineeredFeature, ...] = ()
    if "engineered" in section:
        engineered = _parse_engineered(section["engineered"], f"{where}.engineered")
    rfe = RfeOptions()
    if "rfe" in section:
        rfe = _parse_rfe(section["rfe"], f"{where}.rfe")
    return _checked(
        PreprocessOptions,
        where,
        test_fraction=_get(section, "test_fraction", float, where, 0.2),
        dedup=_get(section, "dedup", bool, where, True),
        scale=_get(section, "scale", bool, where, True),
        correlation_threshold=_get(section, "correlation_threshold", float, where, 0.7),
        engineered=engineered,
        rfe=rfe,
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


def _parse_cv(section: Any, where: str) -> CvOptions:
    section = _expect_mapping(section, where)
    _reject_unknown(section, ("k", "models"), where)
    models: dict[str, dict[str, list]] = {}
    if "models" in section:
        models = _parse_models(section["models"], f"{where}.models")
    return _checked(CvOptions, where, k=_get(section, "k", int, where, 10), models=models)


def _parse_feature_list(value: Any, where: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{where} must be a list of feature names")
    return tuple(value)


def _checked(options: type, where: str, **values):
    """Build an options dataclass, naming the section in any value error."""
    try:
        return options(**values)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_density(section: Any, where: str) -> DensityOptions:
    section = _expect_mapping(section, where)
    _reject_unknown(section, ("policy", "grid_size", "features"), where)
    features = None
    if "features" in section:
        features = _parse_feature_list(section["features"], f"{where}.features")
    return _checked(
        DensityOptions,
        where,
        policy=_get(section, "policy", str, where, "scott"),
        grid_size=_get(section, "grid_size", int, where, 512),
        features=features,
    )


def _parse_wy(section: Any, where: str) -> WyOptions:
    section = _expect_mapping(section, where)
    allowed = (
        "classes",
        "permutations",
        "alpha",
        "bandwidth",
        "grid_size",
        "cv_candidates",
        "cv_folds",
        "refit_bandwidths",
        "features",
    )
    _reject_unknown(section, allowed, where)
    classes = None
    if "classes" in section:
        value = section["classes"]
        if (
            not isinstance(value, list)
            or len(value) != 2
            or not all(isinstance(v, str) for v in value)
        ):
            raise ConfigError(f"{where}.classes must be a list of two class names")
        classes = (value[0], value[1])
    features = None
    if "features" in section:
        features = _parse_feature_list(section["features"], f"{where}.features")
    return _checked(
        WyOptions,
        where,
        classes=classes,
        permutations=_get(section, "permutations", int, where, 1000),
        alpha=_get(section, "alpha", float, where, 0.05),
        bandwidth=_get(section, "bandwidth", str, where, "cv"),
        grid_size=_get(section, "grid_size", int, where, 512),
        cv_candidates=_get(section, "cv_candidates", int, where, 10),
        cv_folds=_get(section, "cv_folds", int, where, 3),
        refit_bandwidths=_get(section, "refit_bandwidths", bool, where, True),
        features=features,
    )


def parse_config(doc: Any, base_dir: Path | None = None) -> RunConfig:
    """Validate a parsed document and build a RunConfig.

    Relative input/output paths are resolved against base_dir (the config
    file's directory) when given.
    """
    doc = _expect_mapping(doc, "config")
    allowed = (
        "input",
        "output",
        "seed",
        "threads",
        "schema",
        "preprocess",
        "cv",
        "density",
        "wy",
    )
    _reject_unknown(doc, allowed, "config")
    for key in ("input", "schema"):
        if key not in doc:
            raise ConfigError(f"config needs {key!r}")

    def _path(raw: str) -> Path:
        p = Path(raw)
        if base_dir is not None and not p.is_absolute():
            p = base_dir / p
        return p

    seed = _get(doc, "seed", int, "config", 0)
    threads = _get(doc, "threads", int, "config", 1)
    if seed < 0:
        raise ConfigError(f"config.seed must be >= 0, got {seed}")
    if threads < 1:
        raise ConfigError(f"config.threads must be >= 1, got {threads}")
    return RunConfig(
        input=_path(_get(doc, "input", str, "config", None)),
        output=_path(_get(doc, "output", str, "config", "out")),
        schema=_parse_schema(doc["schema"], "config.schema"),
        seed=seed,
        threads=threads,
        preprocess=(
            _parse_preprocess(doc["preprocess"], "config.preprocess")
            if "preprocess" in doc
            else PreprocessOptions()
        ),
        cv=_parse_cv(doc["cv"], "config.cv") if "cv" in doc else CvOptions(),
        density=(
            _parse_density(doc["density"], "config.density")
            if "density" in doc
            else DensityOptions()
        ),
        wy=_parse_wy(doc["wy"], "config.wy") if "wy" in doc else WyOptions(),
    )


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

    The wy options are checked again with the flag values in place.
    """
    if seed is not None:
        if seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {seed}")
        cfg = replace(cfg, seed=seed)
    if out is not None:
        cfg = replace(cfg, output=Path(out))
    if threads is not None:
        if threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {threads}")
        cfg = replace(cfg, threads=threads)
    wy = cfg.wy
    if classes is not None:
        wy = replace(wy, classes=classes)
    if permutations is not None:
        wy = replace(wy, permutations=permutations)
    if bandwidth is not None:
        wy = replace(wy, bandwidth=bandwidth)
    if alpha is not None:
        wy = replace(wy, alpha=alpha)
    if wy is not cfg.wy:
        cfg = replace(cfg, wy=wy)
    return cfg


def config_echo(cfg: RunConfig) -> dict:
    """JSON-serializable echo of the effective configuration."""
    return {
        "input": str(cfg.input),
        "output": str(cfg.output),
        "seed": cfg.seed,
        "threads": cfg.threads,
        "schema": [
            {"name": c.name, "role": c.role, "encoding": c.encoding}
            for c in cfg.schema
        ],
        "preprocess": {
            "test_fraction": cfg.preprocess.test_fraction,
            "dedup": cfg.preprocess.dedup,
            "scale": cfg.preprocess.scale,
            "correlation_threshold": cfg.preprocess.correlation_threshold,
            "engineered": [
                {"source": e.source, "transform": e.transform, "exponent": e.exponent}
                for e in cfg.preprocess.engineered
            ],
            "rfe": {
                "keep_threshold": cfg.preprocess.rfe.keep_threshold,
                "step": cfg.preprocess.rfe.step,
                "n_trees": cfg.preprocess.rfe.n_trees,
                "max_depth": cfg.preprocess.rfe.max_depth,
            },
        },
        "cv": {"k": cfg.cv.k, "models": cfg.cv.models},
        "density": {
            "policy": cfg.density.policy,
            "grid_size": cfg.density.grid_size,
            "features": list(cfg.density.features) if cfg.density.features else None,
        },
        "wy": {
            "classes": list(cfg.wy.classes) if cfg.wy.classes else None,
            "permutations": cfg.wy.permutations,
            "alpha": cfg.wy.alpha,
            "bandwidth": cfg.wy.bandwidth,
            "grid_size": cfg.wy.grid_size,
            "cv_candidates": cfg.wy.cv_candidates,
            "cv_folds": cfg.wy.cv_folds,
            "refit_bandwidths": cfg.wy.refit_bandwidths,
            "features": list(cfg.wy.features) if cfg.wy.features else None,
        },
    }
