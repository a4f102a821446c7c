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
ignored.  ``parse_config`` reads each value at its line and reports the
first problem with its line number and key name.  ``config_text`` is its
lossless inverse.  ``_KEYS`` holds the format: each key's ``RunConfig``
field, reader and writer, in ``config_text`` order.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields

from .censoring import checked_ks
from .distributions import DistributionSpec, _decimal, _fmt, distribution_literal, parse_distribution
from .estimators import Family, Method, build_specs
from .moments import _check_order
from .montecarlo import StudyDesign, _first_repeat

__all__ = ["RunConfig", "parse_config", "config_text"]


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
        # the list rules of the alpha, families and methods lines, so that
        # every RunConfig reads back from its config_text
        for key, entries in (("alpha", self.alphas), ("families", self.families),
                             ("methods", self.methods)):
            i = _first_repeat(entries)
            if i is not None:
                raise ValueError(f"key {key!r} repeats entry {_joined(entries[i:i + 1])!r}")
        for alpha in self.alphas:
            _check_order(alpha)
        if self.out is not None:
            _checked_out("key 'out'", self.out)

    @property
    def k_grid(self) -> tuple[int, ...]:
        return tuple(_k_range(self.k_min, self.k_max, self.k_step))

    def to_design(self) -> StudyDesign:
        # the range's ends against n, before k_grid builds the whole tuple
        checked_ks(_k_range(self.k_min, self.k_max, self.k_step), self.n)
        return StudyDesign(
            dist_x=self.dist_x,
            dist_c=self.dist_c,
            n=self.n,
            reps=self.reps,
            k_grid=self.k_grid,
            specs=build_specs(self.families, self.methods, self.alphas),
            seed=self.seed,
        )


def _checked_out(where: str, out: str) -> str:
    """The rule for ``out``, for ``RunConfig`` and the config line alike: a
    path that ``config_text`` writes on one line and ``parse_config`` reads
    back unchanged, so one that neither ``str.strip`` nor ``str.splitlines``
    changes.  Inner spaces are fine."""
    if out == "":
        raise ValueError(f"{where} must not be empty")
    if out.strip() != out or out.splitlines() != [out]:
        raise ValueError(f"{where} must not have surrounding whitespace or line breaks, got {out!r}")
    return out


def _k_range(k_min: int, k_max: int, k_step: int) -> range:
    """k_min, k_min + k_step, ... up to k_max: the k-grid of the config
    keys and the estimate flags alike (``checked_ks`` checks it on n)."""
    if k_step < 1:
        raise ValueError(f"k_step must be >= 1, got {k_step}")
    if k_min > k_max:
        raise ValueError(f"k_min must not exceed k_max, got {k_min} > {k_max}")
    return range(k_min, k_max + 1, k_step)


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


def _integer(where: str, raw: str) -> int:
    try:
        return _decimal(raw, int)
    except ValueError:
        raise ValueError(f"{where} expects an integer, got {raw!r}") from None


def _alphas(where: str, raw: str) -> tuple[float, ...]:
    alphas = _parse_list(where, raw, _decimal)
    build_specs(Family, Method, alphas)  # EstimatorSpec holds the rule for alpha
    return alphas


def _joined(values) -> str:
    """The inverse of ``_parse_list``: members by value, numbers by ``_fmt``."""
    return ",".join(v.value if isinstance(v, (Family, Method)) else _fmt(v) for v in values)


# Readers and writers call other modules through this module's names, at
# each call, so that a wrapper bound to such a name sees the call.
_DISTRIBUTION = (lambda where, raw: parse_distribution(raw),
                 lambda spec: distribution_literal(spec))

# key: (RunConfig field, reader of (where, raw value), writer of the field's
# value), in config_text order.  ``where`` is "key 'K'"; parse_config puts
# it before a reader's message that does not start with it.
_KEYS = {
    "dist_x": ("dist_x", *_DISTRIBUTION),
    "dist_c": ("dist_c", *_DISTRIBUTION),
    **{key: (key, _integer, str) for key in ("n", "reps", "seed", "k_min", "k_max", "k_step")},
    "alpha": ("alphas", _alphas, _joined),
    "families": ("families", lambda where, raw: _parse_list(where, raw, Family), _joined),
    "methods": ("methods", lambda where, raw: _parse_list(where, raw, Method), _joined),
    "out": ("out", _checked_out, str),
}


def parse_config(text: str) -> RunConfig:
    """Parse the key-value format; raise ValueError naming the first bad
    line and its key."""
    kwargs = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        field, read, _ = _KEYS[key]
        if field in kwargs:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        where = f"key {key!r}"
        try:
            kwargs[field] = read(where, value)
        except ValueError as exc:
            named = str(exc).startswith(where)
            raise ValueError(f"line {lineno}: {'' if named else where + ': '}{exc}") from None
    for f in fields(RunConfig):  # each field without a default has a key of its name
        if f.default is MISSING and f.name not in kwargs:
            raise ValueError(f"missing required key {f.name!r}")
    return RunConfig(**kwargs)


def config_text(cfg: RunConfig) -> str:
    """Canonical serialization; parse_config(config_text(cfg)) == cfg."""
    return "".join(f"{key} = {write(getattr(cfg, field))}\n"
                   for key, (field, _, write) in _KEYS.items() if getattr(cfg, field) is not None)
