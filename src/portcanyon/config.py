"""Tool configuration: one INI file, every knob declared once.

Each `ToolConfig` field is the only declaration of its INI key: its section and
reference comment are field metadata, and the generator and link-budget
defaults are those of `SynthConfig`, `CampaignLayout` and `LinkBudgetConfig`.
The key check, the value parsers, the reference file `DEFAULT_INI` and the CLI
overrides are derived from the fields.  Flags override file values, file
values override the defaults.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .linkbudget import LinkBudgetConfig
from .synth import CampaignLayout, SynthConfig

__all__ = ["ToolConfig", "DEFAULT_INI", "load_config"]


def _key(section: str, default, doc: str = "", text: str = ""):
    """A key of [section]: the comment printed above it, if any, and its printed
    value where that is not `repr(default)`."""
    return field(default=default, metadata={"section": section, "doc": doc, "text": text})


@dataclass
class ToolConfig:
    psi_rad: float = _key(
        "model", SynthConfig.psi,
        "Maximum azimuthal acceptance angle of the canyon model (rad).")
    rx_height_m: float = _key(
        "model", CampaignLayout.rx_height_m, "RX antenna height above ground (m).")
    histogram_bin_db: float = _key(
        "angular", 1.0, "Histogram bin width for ensemble spectrum statistics (dB).")
    seed: int = _key(
        "synth", SynthConfig.seed,
        "Master seed; a fixed seed makes datasets and reports byte-identical.")
    n_angles: int = _key("synth", SynthConfig.n_angles, "Azimuth samples per rotation.")
    hpbw_deg: float = _key("synth", SynthConfig.hpbw_deg, "RX horn half-power beamwidth (deg).")
    fading: bool = _key("synth", SynthConfig.fading, "Per-bin Rayleigh fading on/off.")
    n_realizations: int = _key(
        "synth", SynthConfig.n_realizations,
        "Monte Carlo realizations for the full-spread reference distribution.")
    gain_offset_db: float = _key(
        "synth", SynthConfig.gain_offset_db,
        "Calibration offset added to the proportional model gain (dB).")
    vehicle_mu_db: float = _key(
        "synth", SynthConfig.vehicle_mu_db,
        "Vehicle perturbation: Gaussian mean/std of the gain difference (dB).")
    vehicle_sigma_db: float = _key("synth", SynthConfig.vehicle_sigma_db)
    tx_power_dbm_per_pol: float = _key(
        "linkbudget", LinkBudgetConfig.tx_power_dbm_per_pol,
        "Transmit power per polarization (dBm) and antenna gain (dBi).")
    tx_antenna_gain_dbi: float = _key("linkbudget", LinkBudgetConfig.tx_antenna_gain_dbi)
    shadow_margin_db: float = _key("linkbudget", LinkBudgetConfig.shadow_margin_db)
    bandwidth_hz: float = _key("linkbudget", LinkBudgetConfig.bandwidth_hz, text="400e6")
    temperature_k: float = _key("linkbudget", LinkBudgetConfig.temperature_k)
    noise_figure_db: float = _key("linkbudget", LinkBudgetConfig.noise_figure_db)
    required_snr_db: float = _key("linkbudget", LinkBudgetConfig.required_snr_db)
    spectral_efficiency_bps_hz: float = _key(
        "linkbudget", LinkBudgetConfig.spectral_efficiency_bps_hz,
        "Informational only: single-polarization spectral efficiency (bit/s/Hz).")

    def _build(self, cls, **renamed):
        """A cls from the fields of the same name, plus the `renamed` ones."""
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls)
                      if f.name in self.__dataclass_fields__}, **renamed)

    def synth_config(self) -> SynthConfig:
        return self._build(SynthConfig, psi=self.psi_rad)

    def linkbudget_config(self) -> LinkBudgetConfig:
        return self._build(LinkBudgetConfig)


def _render() -> str:
    lines = ["# portcanyon configuration file (INI). Every key is optional; the values",
             "# below are the built-in defaults."]
    section = None
    for f in fields(ToolConfig):
        if f.metadata["section"] != section:
            section = f.metadata["section"]
            lines += ["", f"[{section}]"]
        if f.metadata["doc"]:
            lines.append(f"# {f.metadata['doc']}")
        value = str(f.default).lower() if type(f.default) is bool else repr(f.default)
        lines.append(f"{f.name} = {f.metadata['text'] or value}")
    return "\n".join(lines) + "\n"


DEFAULT_INI = _render()

# The parser of a key's value, by the type of its default.
_GETTERS = {bool: "getboolean", int: "getint", float: "getfloat"}


def load_config(path=None) -> ToolConfig:
    """Defaults, overridden by an optional INI file."""
    cfg = ToolConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ConfigError(f"cannot read config file {path!r}")
    keys = {(f.metadata["section"], f.name): f for f in fields(ToolConfig)}
    for section in parser.sections():
        if section not in {s for s, _ in keys}:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if (section, key) not in keys:
                raise ConfigError(f"unknown key [{section}] {key}")
            try:
                value = getattr(parser, _GETTERS[type(keys[section, key].default)])(section, key)
            except ValueError as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc
            setattr(cfg, key, value)
    return cfg
