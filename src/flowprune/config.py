"""Flat key-value run configuration.

Grammar (one entry per line):

    # comment, blank lines ignored
    key = value

Keys match ``[A-Za-z_][A-Za-z0-9_.]*``. Values are typed by syntax: ``true``
/ ``false`` are booleans, integer and float literals are numeric, quoted
strings are strings, and a comma-separated sequence is a list of scalars.
``#`` and ``,`` inside a quoted string are literal characters. Serialization
quotes every string, so configs round-trip losslessly. ``RunConfig`` checks
each value against the type of its field when it is loaded; an integer
literal for a float field is stored as a float.
"""

from __future__ import annotations

import hashlib
import re
import typing
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")
_INT_RE = re.compile(r"^[+-]?\d+$")
_FLOAT_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?$")
# the line up to its first '#' outside double quotes
_BODY_RE = re.compile(r'(?:"[^"]*"|[^"#])*')
# a comma followed by an even number of quotes, so outside any string
_COMMA_RE = re.compile(r',(?=(?:[^"]*"[^"]*")*[^"]*$)')


class ConfigError(ValueError):
    """Malformed config text or unknown keys."""


def _parse_scalar(token: str):
    token = token.strip()
    if token == "true":
        return True
    if token == "false":
        return False
    if token.startswith('"') and token.endswith('"') and len(token) >= 2:
        return token[1:-1]
    if _INT_RE.match(token):
        return int(token)
    if _FLOAT_RE.match(token):
        return float(token)
    return token


def _matches(value, kind: type) -> bool:
    """An int literal is valid for a float field; a boolean only for bool."""
    return isinstance(value, bool) == (kind is bool) and isinstance(
        value, (int, float) if kind is float else kind)


def _format_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        if '"' in value:
            raise ConfigError(f"string {value!r} contains a double quote")
        return f'"{value}"'
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_kv(text: str) -> dict:
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _BODY_RE.match(raw).group()
        if raw[len(line):].startswith('"'):
            raise ConfigError(f"line {lineno}: unterminated string")
        line = line.strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not _KEY_RE.match(key):
            raise ConfigError(f"line {lineno}: bad key {key!r}")
        tokens = _COMMA_RE.split(value)
        if len(tokens) > 1:
            out[key] = [_parse_scalar(tok) for tok in tokens]
        else:
            out[key] = _parse_scalar(value)
    return out


def dump_kv(items: dict) -> str:
    lines = []
    for key in items:
        value = items[key]
        if isinstance(value, (list, tuple)):
            body = ", ".join(_format_scalar(v) for v in value)
        else:
            body = _format_scalar(value)
        lines.append(f"{key} = {body}")
    return "\n".join(lines) + "\n"


@dataclass
class RunConfig:
    """Everything one experiment run needs, flat and serializable."""

    dataset_kind: str = "ring-mixture"
    dataset_size: int = 8192
    dataset_seed: int = 0
    model_hidden: int = 128
    model_depth: int = 4
    model_temb_dim: int = 64
    diffusion_t: int = 1000
    diffusion_beta_start: float = 1e-4
    diffusion_beta_end: float = 0.02
    train_lr: float = 2e-4
    train_batch: int = 128
    pretrain_steps: int = 20000
    plan_s: float = 0.5
    plan_total_steps: int = 20000
    plan_m_iters: int = 40
    plan_n_iters: int = 20
    plan_interval: int = 100
    plan_criterion: str = "gradient-flow"
    plan_mode: str = "progressive-soft"
    plan_score_batches: int = 4
    plan_score_batch_size: int = 256
    eval_samples: int = 10000
    eval_substeps: int = 100
    eval_seed: int = 77
    trace_samples: int = 512
    trace_substeps: int = 20
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2, 3, 4])
    out_dir: str = "runs"

    def __post_init__(self):
        # an int given for a float field is stored as a float, so "= 1" and
        # "= 1.0" compare, serialize and hash alike
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if type(value) is int:
                setattr(self, name, float(value))

    def to_text(self) -> str:
        return dump_kv(asdict(self))

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        items = parse_kv(text)
        declared = {f.name: f.type for f in fields(cls)}
        unknown = set(items) - set(declared)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        hints = typing.get_type_hints(cls)
        for key, value in items.items():
            kind, values = hints[key], [value]
            if typing.get_origin(kind) is list:
                # a single scalar stands for a one-element list
                values = items[key] = value if isinstance(value, list) else [value]
                (kind,) = typing.get_args(kind)
            if not all(_matches(v, kind) for v in values):
                raise ConfigError(f"{key}: expected {declared[key]}, got {value!r}")
        return cls(**items)

    @classmethod
    def load(cls, path) -> "RunConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
        return cls.from_text(text)

    def save(self, path) -> None:
        Path(path).write_text(self.to_text(), encoding="utf-8")

    def digest(self) -> str:
        """Hash of every field that decides what a run computes; ``out_dir``
        and ``seeds`` only say where runs go and which seeds run (each run
        records its own seed)."""
        items = asdict(self)
        del items["out_dir"], items["seeds"]
        return _digest(items)

    def pretrain_digest(self) -> str:
        """Hash of the fields a pretrained checkpoint depends on, so prune
        arms with different plans can share one pretrain."""
        keys = [
            "dataset_kind", "dataset_size", "dataset_seed", "model_hidden",
            "model_depth", "model_temb_dim", "diffusion_t",
            "diffusion_beta_start", "diffusion_beta_end", "train_lr",
            "train_batch", "pretrain_steps",
        ]
        items = asdict(self)
        return _digest({k: items[k] for k in keys})


def _digest(items: dict) -> str:
    return hashlib.sha256(dump_kv(items).encode("utf-8")).hexdigest()[:16]


_FLOAT_FIELDS = tuple(name for name, kind in typing.get_type_hints(RunConfig).items()
                      if kind is float)
