"""Simulation run configuration: a small key-value text format.

Example::

    # index of X is -1, index of C is -3/2
    dist_x = revburr(1,1,1,10)
    dist_c = revburr(10,0.6666666666666666,1,10)
    n      = 500
    reps   = 500
    seed   = 2014
    k_min  = 50
    k_max  = 250
    k_step = 25
    alpha  = 2
    families = type1
    methods  = km,l,efg
    out    = figure1.csv

Lines are ``key = value``; blank lines and lines starting with ``#`` are
ignored.  ``parse_config`` reports problems with the offending line
number and key name.  ``config_text`` is its lossless inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

from .distributions import DistributionSpec, _decimal, _fmt, distribution_literal, parse_distribution
from .estimators import Family, Method
from .montecarlo import StudyDesign, _first_repeat, build_specs

__all__ = ["RunConfig", "parse_config", "config_text"]

_REQUIRED = ("dist_x", "dist_c", "n", "reps", "seed", "k_min", "k_max")
_KNOWN = _REQUIRED + ("k_step", "alpha", "families", "methods", "out")


@dataclass(frozen=True)
class RunConfig:
    dist_x: DistributionSpec
    dist_c: DistributionSpec
    n: int
    reps: int
    seed: int
    k_min: int
    k_max: int
    k_step: int = 1
    alphas: tuple[float, ...] = (2.0,)
    families: tuple[Family, ...] = (Family.MOMENT, Family.TYPE1, Family.TYPE2)
    methods: tuple[Method, ...] = (Method.KM, Method.LEURGANS, Method.EFG)
    out: str | None = None

    def __post_init__(self):
        _k_range(self.k_min, self.k_max, self.k_step)
        if not self.alphas:
            raise ValueError("alpha list must not be empty")
        if not self.families or not self.methods:
            raise ValueError("families and methods must not be empty")

    @property
    def k_grid(self) -> tuple[int, ...]:
        return tuple(_k_range(self.k_min, self.k_max, self.k_step))

    def to_design(self) -> StudyDesign:
        return StudyDesign(
            dist_x=self.dist_x,
            dist_c=self.dist_c,
            n=self.n,
            reps=self.reps,
            k_grid=self.k_grid,
            specs=build_specs(self.families, self.methods, self.alphas),
            seed=self.seed,
        )


def _k_range(k_min: int, k_max: int, k_step: int) -> range:
    """k_min, k_min + k_step, ... up to k_max: the k-grid of the config
    keys and the estimate flags alike (``checked_ks`` checks it on n)."""
    if k_step < 1:
        raise ValueError(f"k_step must be >= 1, got {k_step}")
    if k_min > k_max:
        raise ValueError(f"k_min must not exceed k_max, got {k_min} > {k_max}")
    return range(k_min, k_max + 1, k_step)


def _parse_int(key: str, raw: str, lineno: int) -> int:
    try:
        return _decimal(raw, int)
    except ValueError:
        raise ValueError(f"line {lineno}: key {key!r} expects an integer, got {raw!r}") from None


def _names(enum_cls) -> list[str]:
    """Member values in declaration order, the order of every listing."""
    return [member.value for member in enum_cls]


def _parse_list(where: str, raw: str, kind) -> tuple:
    """The entries of a comma list, stripped and mapped through ``kind``,
    an enum (by member value) or ``_decimal``; the one list grammar of the
    config keys and the CLI flags.  A ValueError names ``where`` (a line
    and key, or a flag) and the first unknown or repeated entry."""
    parts = [part.strip() for part in raw.split(",")]
    values = []
    for part in parts:
        try:
            values.append(kind(part))
        except ValueError:
            expected = "a number" if kind is _decimal else f"one of {', '.join(_names(kind))}"
            raise ValueError(f"{where} has unknown entry {part!r} (expected {expected})") from None
    i = _first_repeat(values)
    if i is not None:
        raise ValueError(f"{where} repeats entry {parts[i]!r}")
    return tuple(values)


def parse_config(text: str) -> RunConfig:
    """Parse the key-value format; raise ValueError naming the bad line/key."""
    raw: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KNOWN:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = (value, lineno)
    for key in _REQUIRED:
        if key not in raw:
            raise ValueError(f"missing required key {key!r}")

    kwargs = {}
    for key in ("dist_x", "dist_c"):
        value, lineno = raw[key]
        try:
            kwargs[key] = parse_distribution(value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: key {key!r}: {exc}") from None
    for key in ("n", "reps", "seed", "k_min", "k_max", "k_step"):
        if key in raw:
            value, lineno = raw[key]
            kwargs[key] = _parse_int(key, value, lineno)
    for key, field, kind in (("alpha", "alphas", _decimal), ("families", "families", Family),
                             ("methods", "methods", Method)):
        if key in raw:
            value, lineno = raw[key]
            kwargs[field] = _parse_list(f"line {lineno}: key {key!r}", value, kind)
    if "alpha" in raw:
        try:  # EstimatorSpec holds the rule for alpha
            build_specs(Family, Method, kwargs["alphas"])
        except ValueError as exc:
            raise ValueError(f"line {raw['alpha'][1]}: key 'alpha': {exc}") from None
    if "out" in raw:
        kwargs["out"] = raw["out"][0]
    return RunConfig(**kwargs)


def config_text(cfg: RunConfig) -> str:
    """Canonical serialization; parse_config(config_text(cfg)) == cfg."""
    lines = [
        f"dist_x = {distribution_literal(cfg.dist_x)}",
        f"dist_c = {distribution_literal(cfg.dist_c)}",
        f"n = {cfg.n}",
        f"reps = {cfg.reps}",
        f"seed = {cfg.seed}",
        f"k_min = {cfg.k_min}",
        f"k_max = {cfg.k_max}",
        f"k_step = {cfg.k_step}",
        f"alpha = {','.join(map(_fmt, cfg.alphas))}",
        f"families = {','.join(f.value for f in cfg.families)}",
        f"methods = {','.join(m.value for m in cfg.methods)}",
    ]
    if cfg.out is not None:
        lines.append(f"out = {cfg.out}")
    return "\n".join(lines) + "\n"
