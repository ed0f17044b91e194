"""INI-style run configuration: parsing, validation, case-study defaults.

A run file has the sections [plant], [truncation], [control],
[certificate], [coupling], [simulation] and optionally [initial].  Each
section is a dataclass below, and each of its fields declares one key
once: its type, its default (a field without one is a required key), and
through `_key` its INI name where that differs from the field name and
its single-key rule.  One reader converts every value by its declared
type, rejects non-finite numbers and unknown keys and sections, and
applies the rules; `_config_from_parser` adds the checks that span keys.
Every load error names the offending section and key.  A ';' after
whitespace starts an inline comment.
"""

import cmath
import configparser
import os
import typing
from dataclasses import MISSING, dataclass, field, fields

from .errors import ConfigError

__all__ = [
    "RunConfig",
    "load_config",
    "loads_config",
    "case_study_run_config",
]

# single-key rules: (test, what a value failing it must be); a NaN fails
# every test, though the reader rejects non-finite numbers before the rules
_POSITIVE = (lambda v: v > 0, "must be positive")
_NONNEGATIVE = (lambda v: v >= 0, "must be nonnegative")
_AT_LEAST_1 = (lambda v: v >= 1, "must be at least 1")
_OPEN_UNIT = (lambda v: 0 < v < 1, "must lie in (0, 1)")


# the artifacts the CLI writes next to the trajectory CSV
_OTHER_ARTIFACTS = ("case_study.ini", "validate.txt", "design.txt",
                    "gain.csv", "certificate.txt", "summary.txt")
# the trajectory CSV is written to --out / output, so output must be a
# file name in that directory: a path needs directories that may not
# exist, "" and "." name the directory itself, and another artifact's
# file would be overwritten by the trajectory or overwrite it
_FILE_NAME = (lambda v: v not in ("", ".", "..") and os.path.basename(v) == v
              and v not in _OTHER_ARTIFACTS,
              "must be a file name with no directory, other than "
              + ", ".join(_OTHER_ARTIFACTS))


def _one_of(*choices):
    return (lambda v: v in choices, "must be " + ", ".join(
        map(repr, choices[:-1])) + f" or {choices[-1]!r}")


def _key(default=MISSING, *, ini=None, rule=None):
    """A field whose INI key is spelled `ini`, or that has a rule."""
    return field(default=default, metadata={"ini": ini, "rule": rule})


@dataclass(frozen=True)
class PlantConfig:
    a: float = _key(rule=_POSITIVE)
    c: float
    L: float = _key(rule=_POSITIVE)
    n_max: int = _key(ini="N_max", rule=_AT_LEAST_1)


@dataclass(frozen=True)
class TruncationConfig:
    n0: int = _key(ini="N0", rule=_NONNEGATIVE)


@dataclass(frozen=True)
class ControlConfig:
    delay: float = _key(ini="D", rule=_POSITIVE)
    t0: float = _key(rule=_POSITIVE)
    poles: tuple[complex, ...]


@dataclass(frozen=True)
class CertificateConfig:
    optimize: bool = True
    beta: float | None = _key(None, rule=_OPEN_UNIT)
    gamma1: float | None = _key(None, rule=_POSITIVE)
    gamma2: float | None = _key(None, rule=_POSITIVE)


@dataclass(frozen=True)
class CouplingConfig:
    a1: float = _key(1.5, rule=_POSITIVE)
    b1: float = 0.5
    c1: float = 0.2
    a2: float = 0.7
    b2: float = 0.55
    c2: float = 10.0
    d2: float = 0.45
    disturbance: str = _key("case-study", rule=_one_of("none", "case-study"))

    def gains(self) -> dict[str, float]:
        """The seven gains, keyed as coupling_constants takes them."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "disturbance"}


@dataclass(frozen=True)
class SimulationConfig:
    dt: float = _key(1e-3, rule=_POSITIVE)
    t_end: float = _key(10.0, ini="T_end", rule=_NONNEGATIVE)
    n_modes: int = _key(10, ini="N_modes")
    record_stride: int = _key(1, rule=_AT_LEAST_1)
    output: str = _key("trajectory.csv", rule=_FILE_NAME)


@dataclass(frozen=True)
class InitialConfig:
    x0: float = 0.0
    pde_profile: str = _key("zero", rule=_one_of("zero", "cubic", "coeffs"))
    coeffs: tuple[float, ...] = ()


@dataclass(frozen=True)
class RunConfig:
    plant: PlantConfig
    truncation: TruncationConfig
    control: ControlConfig
    certificate: CertificateConfig = field(default_factory=CertificateConfig)
    coupling: CouplingConfig = field(default_factory=CouplingConfig)
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    initial: InitialConfig = field(default_factory=InitialConfig)


_BOOLEANS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
             **dict.fromkeys(("0", "false", "no", "off"), False)}

# the parser of each declared value type, and the kind that errors name
_PARSERS = {float: (float, "number"), int: (int, "integer"),
            complex: (complex, "complex number"),
            bool: (lambda raw: _BOOLEANS[raw.lower()], "boolean"),
            str: (str.strip, "string")}


def _convert(where: str, typ, raw: str):
    """raw as a value of the declared type; a tuple is a comma list."""
    args = typing.get_args(typ)
    if typing.get_origin(typ) is tuple:
        return tuple(_convert(where, args[0], s.strip())
                     for s in raw.split(",") if s.strip())
    parse, kind = _PARSERS[args[0] if args else typ]  # float | None: float
    try:
        value = parse(raw)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"{where} is not a valid {kind}: {raw!r}") from exc
    if isinstance(value, (float, complex)) and not cmath.isfinite(value):
        raise ConfigError(f"{where} is not a finite {kind}: {raw!r}")
    return value


def _read_section(parser: configparser.ConfigParser, name: str, cls):
    """Section [name] as a `cls`, with cls's defaults for absent keys."""
    present = parser.has_section(name)
    declared = {f.metadata.get("ini") or f.name: f for f in fields(cls)}
    if present:
        known = {key.lower() for key in declared}  # configparser lowercases
        for key in parser.options(name):
            if key not in known:
                raise ConfigError(f"unknown key '{key}' in section [{name}]")
    values = {}
    for key, f in declared.items():
        where = f"key '{key}' in section [{name}]"
        if parser.has_option(name, key):
            value = _convert(where, f.type, parser.get(name, key))
            rule = f.metadata.get("rule")
            if rule and not rule[0](value):
                raise ConfigError(f"{name} {key} {rule[1]}, got {value!r}")
            values[f.name] = value
        elif f.default is MISSING:
            raise ConfigError(f"missing {where}" if present
                              else f"missing section [{name}]")
    return cls(**values)


def load_config(path) -> RunConfig:
    """Parse and validate a run configuration file.

    Raises:
        ConfigError: missing file, missing or unknown section or key, bad
            or non-finite value, or an inconsistent combination (for
            example dt >= delay).
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return _load(text, f"file {path}")


def loads_config(text: str) -> RunConfig:
    """Parse and validate a run configuration from a string."""
    return _load(text, "text")


def _load(text: str, source: str) -> RunConfig:
    # values are literal: with '%' interpolation a '%' in a value raised
    # configparser's own error, past the ConfigError handling.  No header
    # can name the section "", so [DEFAULT] is an ordinary, unknown
    # section rather than keys copied into every section
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=(";",),
                                       default_section="")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {source}: {exc}") from exc
    return _config_from_parser(parser)


def _config_from_parser(parser: configparser.ConfigParser) -> RunConfig:
    sections = {f.name: f.type for f in fields(RunConfig)}
    for name in parser.sections():
        if name not in sections:
            raise ConfigError(f"unknown section [{name}]")
    cfg = RunConfig(**{name: _read_section(parser, name, cls)
                       for name, cls in sections.items()})

    # the rules below span keys; each key's own rule is declared above
    n0, n_max = cfg.truncation.n0, cfg.plant.n_max
    if n0 >= n_max:
        raise ConfigError(f"truncation N0 = {n0} must be below N_max = {n_max}")
    poles = cfg.control.poles
    if n0 > 0 and len(poles) != n0:
        raise ConfigError(
            f"control poles must list exactly N0 = {n0} values, "
            f"got {len(poles)}")

    cert = cfg.certificate
    overrides = (cert.beta, cert.gamma1, cert.gamma2)
    if not cert.optimize:
        if any(v is None for v in overrides):
            raise ConfigError(
                "certificate optimize = false requires beta, gamma1 and gamma2")
    elif any(v is not None for v in overrides):
        # the optimizer chooses the weights itself, so given weights would
        # be ignored
        raise ConfigError(
            "certificate weights need optimize = false with all of beta, "
            "gamma1, gamma2")

    sim = cfg.simulation
    if sim.n_modes < max(1, n0):
        raise ConfigError(
            f"simulation N_modes = {sim.n_modes} must cover N0 = {n0}")
    if sim.n_modes > n_max:
        raise ConfigError(
            f"simulation N_modes = {sim.n_modes} exceeds plant "
            f"N_max = {n_max}")
    if sim.dt >= cfg.control.delay:
        raise ConfigError(
            f"simulation dt = {sim.dt} must be smaller than the "
            f"control delay D = {cfg.control.delay}")

    init = cfg.initial
    if init.pde_profile == "coeffs" and not init.coeffs:
        raise ConfigError("initial pde_profile = coeffs requires a coeffs list")
    if init.pde_profile == "coeffs" and len(init.coeffs) > sim.n_modes:
        raise ConfigError(f"initial coeffs list longer than N_modes = "
                          f"{sim.n_modes}")
    return cfg


CASE_STUDY_INI = """\
[plant]
a = 5.0
c = 2.5
L = 6.283185307179586
N_max = 10

[truncation]
N0 = 2

[control]
D = 0.1
t0 = 0.2
poles = -3, -3

[certificate]
optimize = true

[coupling]
a1 = 1.5
b1 = 0.5
c1 = 0.2
a2 = 0.7
b2 = 0.55
c2 = 10.0
d2 = 0.45
disturbance = case-study

[simulation]
dt = 0.001
T_end = 10.0
N_modes = 10
record_stride = 1
output = trajectory.csv

[initial]
x0 = -2.0
pde_profile = cubic
"""


def case_study_run_config() -> RunConfig:
    """In-memory RunConfig of the built-in case study."""
    return loads_config(CASE_STUDY_INI)
