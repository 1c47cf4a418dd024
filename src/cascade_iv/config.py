"""Experiment configuration: a flat key=value file with one bracketed section.

The canonical serialization lists the fields in declaration order, omits
unset optionals, and formats floats with shortest-round-trip precision, so
``to_text(from_text(text)) == text`` holds byte for byte on canonical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .params import HopConvention
from .simulate import KnownSampleSource, PacketStreamSource, RefinementSource, SinglePacketSource

__all__ = ["SCHEMES", "NOISES", "CONVENTIONS", "ExperimentConfig"]

# Each scheme's source class and the config keys that are its arguments, in
# order; a scheme requires exactly those keys.
SCHEMES = {
    "single_sample": (KnownSampleSource, ()),
    "single_packet": (SinglePacketSource, ("packet_bits",)),
    "refined_source": (RefinementSource, ("rate_nats",)),
    "packet_stream": (PacketStreamSource, ("packet_bits", "period")),
}
NOISES = ("gaussian", "uniform", "rademacher")
CONVENTIONS = tuple(c.value for c in HopConvention)

_SECTION = "[experiment]"


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return " ".join(f"{v:.17g}" for v in value)
    return str(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a CLI run needs; optional fields apply per scheme."""

    scheme: str = "single_sample"
    snr: float = 10.0
    rate_nats: float | None = None
    packet_bits: int | None = None
    period: int | None = None
    noise: str = "gaussian"
    r_max: int = 5
    t_max: int = 20
    velocities: tuple[float, ...] | None = None
    num_trials: int = 100_000
    master_seed: int = 14
    out_dir: str = "out"
    convention: str = "inst"

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {tuple(SCHEMES)}, got {self.scheme!r}")
        if self.noise not in NOISES:
            raise ValueError(f"noise must be one of {NOISES}, got {self.noise!r}")
        if self.convention not in CONVENTIONS:
            raise ValueError(f"convention must be one of {CONVENTIONS}")
        if not (math.isfinite(self.snr) and self.snr > 0):
            raise ValueError("snr must be positive and finite")
        if self.rate_nats is not None and not (math.isfinite(self.rate_nats)
                                               and self.rate_nats > 0):
            raise ValueError("rate_nats must be positive and finite")
        keys = SCHEMES[self.scheme][1]
        if any(getattr(self, key) is None for key in keys):
            raise ValueError(f"{self.scheme} requires {' and '.join(keys)}")
        if self.packet_bits is not None and self.packet_bits < 1:
            raise ValueError("packet_bits must be >= 1")
        if self.period is not None and self.period < 1:
            raise ValueError("period must be >= 1")
        if self.r_max < 1 or self.t_max < 0:
            raise ValueError("need r_max >= 1 and t_max >= 0")
        if self.num_trials < 1:
            raise ValueError("num_trials must be >= 1")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(
                f"master_seed must be an unsigned 64-bit integer, got {self.master_seed}"
            )
        if self.velocities is not None:
            if not self.velocities:
                raise ValueError("velocity list must be non-empty when given")
            if any(not (math.isfinite(v) and v > 0) for v in self.velocities):
                raise ValueError("velocities must be positive and finite")

    def to_text(self) -> str:
        lines = [_SECTION]
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            lines.append(f"{f.name} = {_fmt(value)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        seen_section = False
        raw: dict[str, tuple[int, str]] = {}  # key: (line number, value)
        for lineno, line in enumerate(text.splitlines(), 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if stripped.startswith("["):
                if stripped != _SECTION:
                    raise ValueError(f"line {lineno}: unknown section {stripped!r}")
                seen_section = True
                continue
            if "=" not in stripped:
                raise ValueError(f"line {lineno}: expected key = value, got {stripped!r}")
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key in raw:
                raise ValueError(
                    f"line {lineno}: config key {key!r} already set on line {raw[key][0]}"
                )
            raw[key] = (lineno, value.strip())
        if not seen_section:
            raise ValueError(f"missing {_SECTION} section header")

        kwargs = {}
        known = {f.name: f for f in fields(cls)}
        for key, (_, value) in raw.items():
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            kwargs[key] = _parse_field(key, value)
        return cls(**kwargs)

    def save(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path, "r") as fh:
            return cls.from_text(fh.read())


_INT_KEYS = {"packet_bits", "period", "r_max", "t_max", "num_trials", "master_seed"}
_FLOAT_KEYS = {"snr", "rate_nats"}


def _parse_field(key: str, value: str):
    if key in _INT_KEYS:
        return int(value)
    if key in _FLOAT_KEYS:
        return float(value)
    if key == "velocities":
        return tuple(float(tok) for tok in value.split())
    return value
