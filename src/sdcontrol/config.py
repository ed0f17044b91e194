"""INI-style run configuration: parsing, validation, case-study defaults.

A run file has the sections [plant], [truncation], [control],
[certificate], [coupling], [simulation] and optionally [initial]; every
load error names the offending section and key.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

from .errors import ConfigError

__all__ = [
    "RunConfig",
    "load_config",
    "loads_config",
    "case_study_run_config",
]


@dataclass(frozen=True)
class PlantConfig:
    a: float
    c: float
    L: float
    n_max: int


@dataclass(frozen=True)
class TruncationConfig:
    n0: int


@dataclass(frozen=True)
class ControlConfig:
    delay: float
    t0: float
    poles: tuple[complex, ...]


@dataclass(frozen=True)
class CertificateConfig:
    optimize: bool = True
    beta: float | None = None
    gamma1: float | None = None
    gamma2: float | None = None


@dataclass(frozen=True)
class CouplingConfig:
    a1: float = 1.5
    b1: float = 0.5
    c1: float = 0.2
    a2: float = 0.7
    b2: float = 0.55
    c2: float = 10.0
    d2: float = 0.45
    disturbance: str = "case-study"


@dataclass(frozen=True)
class SimulationConfig:
    dt: float = 1e-3
    t_end: float = 10.0
    n_modes: int = 10
    record_stride: int = 1
    output: str = "trajectory.csv"


@dataclass(frozen=True)
class InitialConfig:
    x0: float = 0.0
    pde_profile: str = "zero"  # zero | cubic | coeffs
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


class _SectionReader:
    def __init__(self, parser: configparser.ConfigParser, section: str):
        self.section = section
        self.present = parser.has_section(section)
        self._parser = parser

    def _raw(self, key: str, required: bool, default):
        if not self.present or not self._parser.has_option(self.section, key):
            if required:
                raise ConfigError(
                    f"missing key '{key}' in section [{self.section}]")
            return default
        return self._parser.get(self.section, key)

    def _convert(self, key: str, raw: str, conv, kind: str):
        try:
            return conv(raw)
        except ValueError as exc:
            raise ConfigError(
                f"key '{key}' in section [{self.section}] is not a valid "
                f"{kind}: {raw!r}") from exc

    def get_float(self, key, default=None, required=False):
        raw = self._raw(key, required, default)
        return raw if raw is default else self._convert(key, raw, float, "number")

    def get_int(self, key, default=None, required=False):
        raw = self._raw(key, required, default)
        return raw if raw is default else self._convert(key, raw, int, "integer")

    def get_bool(self, key, default=None, required=False):
        raw = self._raw(key, required, default)
        if raw is default:
            return raw
        lowered = str(raw).strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ConfigError(
            f"key '{key}' in section [{self.section}] is not a valid boolean: {raw!r}")

    def get_str(self, key, default=None, required=False):
        raw = self._raw(key, required, default)
        return raw if raw is default else str(raw).strip()

    def get_complex_list(self, key, required=False):
        raw = self._raw(key, required, None)
        if raw is None:
            return None
        items = [s.strip() for s in str(raw).split(",") if s.strip()]
        return tuple(self._convert(key, s, complex, "complex number")
                     for s in items)

    def get_float_list(self, key, default=()):
        raw = self._raw(key, False, None)
        if raw is None:
            return tuple(default)
        items = [s.strip() for s in str(raw).split(",") if s.strip()]
        return tuple(self._convert(key, s, float, "number") for s in items)


def _positive(value, what: str):
    if value <= 0:
        raise ConfigError(f"{what} must be positive, got {value}")
    return value


def load_config(path) -> RunConfig:
    """Parse and validate a run configuration file.

    Raises:
        ConfigError: missing file, missing key, bad value, or an
            inconsistent combination (for example dt >= delay).
    """
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    return _config_from_parser(parser)


def loads_config(text: str) -> RunConfig:
    """Parse and validate a run configuration from a string."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config text: {exc}") from exc
    return _config_from_parser(parser)


def _config_from_parser(parser: configparser.ConfigParser) -> RunConfig:
    plant_r = _SectionReader(parser, "plant")
    if not plant_r.present:
        raise ConfigError("missing section [plant]")
    plant = PlantConfig(
        a=_positive(plant_r.get_float("a", required=True), "plant a"),
        c=plant_r.get_float("c", required=True),
        L=_positive(plant_r.get_float("L", required=True), "plant L"),
        n_max=plant_r.get_int("N_max", required=True),
    )
    if plant.n_max < 1:
        raise ConfigError(f"plant N_max must be at least 1, got {plant.n_max}")

    trunc_r = _SectionReader(parser, "truncation")
    if not trunc_r.present:
        raise ConfigError("missing section [truncation]")
    truncation = TruncationConfig(n0=trunc_r.get_int("N0", required=True))
    if truncation.n0 < 0:
        raise ConfigError(f"truncation N0 must be nonnegative, got {truncation.n0}")
    if truncation.n0 >= plant.n_max:
        raise ConfigError(
            f"truncation N0 = {truncation.n0} must be below N_max = {plant.n_max}")

    ctrl_r = _SectionReader(parser, "control")
    if not ctrl_r.present:
        raise ConfigError("missing section [control]")
    poles = ctrl_r.get_complex_list("poles", required=True)
    control = ControlConfig(
        delay=_positive(ctrl_r.get_float("D", required=True), "control D"),
        t0=_positive(ctrl_r.get_float("t0", required=True), "control t0"),
        poles=poles,
    )
    if truncation.n0 > 0 and len(poles) != truncation.n0:
        raise ConfigError(
            f"control poles must list exactly N0 = {truncation.n0} values, "
            f"got {len(poles)}")

    cert_r = _SectionReader(parser, "certificate")
    certificate = CertificateConfig(
        optimize=cert_r.get_bool("optimize", default=True),
        beta=cert_r.get_float("beta"),
        gamma1=cert_r.get_float("gamma1"),
        gamma2=cert_r.get_float("gamma2"),
    )
    overrides = (certificate.beta, certificate.gamma1, certificate.gamma2)
    if not certificate.optimize:
        if any(v is None for v in overrides):
            raise ConfigError(
                "certificate optimize = false requires beta, gamma1 and gamma2")
    elif any(v is not None for v in overrides):
        # the optimizer chooses the weights itself, so given weights would
        # be ignored
        raise ConfigError(
            "certificate weights need optimize = false with all of beta, "
            "gamma1, gamma2")

    coup_r = _SectionReader(parser, "coupling")
    coupling = CouplingConfig(
        a1=coup_r.get_float("a1", default=1.5),
        b1=coup_r.get_float("b1", default=0.5),
        c1=coup_r.get_float("c1", default=0.2),
        a2=coup_r.get_float("a2", default=0.7),
        b2=coup_r.get_float("b2", default=0.55),
        c2=coup_r.get_float("c2", default=10.0),
        d2=coup_r.get_float("d2", default=0.45),
        disturbance=coup_r.get_str("disturbance", default="case-study"),
    )
    if coupling.a1 <= 0:
        raise ConfigError(f"coupling a1 must be positive, got {coupling.a1}")
    if coupling.disturbance not in ("none", "case-study"):
        raise ConfigError(
            f"coupling disturbance must be 'none' or 'case-study', "
            f"got {coupling.disturbance!r}")

    sim_r = _SectionReader(parser, "simulation")
    simulation = SimulationConfig(
        dt=_positive(sim_r.get_float("dt", default=1e-3), "simulation dt"),
        t_end=sim_r.get_float("T_end", default=10.0),
        n_modes=sim_r.get_int("N_modes", default=10),
        record_stride=sim_r.get_int("record_stride", default=1),
        output=sim_r.get_str("output", default="trajectory.csv"),
    )
    if simulation.t_end < 0:
        raise ConfigError(f"simulation T_end must be nonnegative, got "
                          f"{simulation.t_end}")
    if simulation.n_modes < max(1, truncation.n0):
        raise ConfigError(
            f"simulation N_modes = {simulation.n_modes} must cover N0 = "
            f"{truncation.n0}")
    if simulation.n_modes > plant.n_max:
        raise ConfigError(
            f"simulation N_modes = {simulation.n_modes} exceeds plant "
            f"N_max = {plant.n_max}")
    if simulation.record_stride < 1:
        raise ConfigError("simulation record_stride must be at least 1")
    if simulation.dt >= control.delay:
        raise ConfigError(
            f"simulation dt = {simulation.dt} must be smaller than the "
            f"control delay D = {control.delay}")

    init_r = _SectionReader(parser, "initial")
    initial = InitialConfig(
        x0=init_r.get_float("x0", default=0.0),
        pde_profile=init_r.get_str("pde_profile", default="zero"),
        coeffs=init_r.get_float_list("coeffs"),
    )
    if initial.pde_profile not in ("zero", "cubic", "coeffs"):
        raise ConfigError(
            f"initial pde_profile must be zero, cubic or coeffs, "
            f"got {initial.pde_profile!r}")
    if initial.pde_profile == "coeffs" and not initial.coeffs:
        raise ConfigError("initial pde_profile = coeffs requires a coeffs list")

    return RunConfig(plant=plant, truncation=truncation, control=control,
                     certificate=certificate, coupling=coupling,
                     simulation=simulation, initial=initial)


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
