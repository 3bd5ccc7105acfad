"""Run configuration loaded from a single YAML or JSON file.

One file drives every subcommand; command-line flags override individual
values. Unknown keys anywhere in the document are rejected before any
computation starts.

Each section's dataclass is the only place its keys, defaults and scalar
types are written. Most are below; the ``wy:`` section is `wytest.WyConfig`,
``preprocess.rfe`` is `trees.RfeConfig`, an ``engineered`` entry is
`preprocess.EngineeredFeature` and a ``schema`` entry is `tabular.ColumnSchema`,
each next to the code that uses it. The ``cv.models`` grids are checked by
`trees.check_grid`, which holds every family's grid keys and value rules.
`_parse_section` takes the allowed keys and defaults from `dataclasses.fields`
and each scalar's type from the field's annotation, where `X | None` means
the key may be null. Only the structured keys (schema, engineered, models,
classes, features) have parsers of their own; a field whose type is a
dataclass is parsed as a nested section. The value checks live in each
dataclass's `__post_init__`, so the flag overrides pass the same checks, and
`config_echo` is `asdict` of the same objects.
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
from .tabular import ColumnSchema, check_feature_list, validate_schema
from .trees import RfeConfig, check_grid
from .wytest import WyConfig


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
class PreprocessOptions:
    test_fraction: float = 0.2
    dedup: bool = True
    scale: bool = True
    correlation_threshold: float = 0.7
    engineered: tuple[EngineeredFeature, ...] = ()
    rfe: RfeConfig = field(default_factory=RfeConfig)

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
        check_feature_list(self.features)


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
    wy: WyConfig = field(default_factory=WyConfig)

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")


def _parse_path(value: Any, where: str) -> Path:
    return Path(_scalar(value, str, where))


def _parse_schema(section: Any, where: str) -> tuple[ColumnSchema, ...]:
    """Each entry is a role or a mapping of role and encoding."""
    section = _expect_mapping(section, where)
    if not section:
        raise ConfigError(f"{where} must name at least one column")
    columns = []
    for name, value in section.items():
        entry = f"{where}.{name}"
        value = {"role": value} if isinstance(value, str) else _expect_mapping(value, entry)
        _reject_unknown(value, ("role", "encoding"), entry)
        columns.append(_parse_section(ColumnSchema, {"name": name} | value, entry))
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
    for family, grid in section.items():
        try:
            check_grid(family, grid, f"{where}.{family}")
        except DataError as exc:
            raise ConfigError(str(exc)) from exc
    return section


def _parse_names(value: Any, where: str) -> tuple[str, ...]:
    """A list of class or feature names; its owner checks the count."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{where} must be a list of names")
    return tuple(value)


# Keys whose values are structured, each with its own parser; every other
# key is a scalar checked against its field's type, or a nested section.
_HOOKS = {
    "input": _parse_path,
    "output": _parse_path,
    "schema": _parse_schema,
    "engineered": _parse_engineered,
    "models": _parse_models,
    "classes": _parse_names,
    "features": _parse_names,
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


class _UniqueKeyLoader(yaml.SafeLoader):
    """SafeLoader that refuses a key written twice in one mapping.

    Each mapping is checked once, before its merge keys (<<) are expanded in
    place, so its own keys may still override merged ones.
    """

    def __init__(self, stream) -> None:
        super().__init__(stream)
        self._checked: set = set()

    def flatten_mapping(self, node) -> None:
        if node not in self._checked:
            self._checked.add(node)
            seen = []
            for key_node, _ in node.value:
                if key_node.tag == "tag:yaml.org,2002:merge":
                    continue
                key = self.construct_object(key_node, deep=True)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"found key {key!r} twice", key_node.start_mark
                    )
                seen.append(key)
        super().flatten_mapping(node)


def _unique_keys(pairs: list) -> dict:
    """json.loads' object hook: a key given twice in one object is an error."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"found key {key!r} twice in one object")
        doc[key] = value
    return doc


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a YAML (.yaml/.yml) or JSON (.json) config file; a
    key given twice in one mapping is a ConfigError."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    suffix = path.suffix.lower()
    try:
        if suffix in (".yaml", ".yml"):
            doc = yaml.load(text, Loader=_UniqueKeyLoader)
        elif suffix == ".json":
            doc = json.loads(text, object_pairs_hook=_unique_keys)
        else:
            raise ConfigError(
                f"unsupported config extension {suffix!r} (use .yaml, .yml, or .json)"
            )
    # json.JSONDecodeError and _unique_keys' error are both ValueErrors
    except (yaml.YAMLError, ValueError) as exc:
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
