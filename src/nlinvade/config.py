"""Scenario configuration: sectioned key=value text, defaults, validation.

The format is a flat TOML-like dialect: ``[section]`` headers, one
``key = value`` per line, ``#`` comments.  Values are booleans
(true/false), integers, floats, bare or quoted strings, and flat lists
``[a, b, c]``.  Keys may be dotted (used by sweep axes).  A key set twice
in one section, also in a repeated ``[section]`` block, is an error.
Parsing then serialising is idempotent on the normalised form, which keeps
configs diff-friendly.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .diagnostics import DiagnosticsConfig
from .dynamics import ModelParams
from .errors import ConfigInvalid, InvalidInitialU, InvalidInitialV
from .kernels import CLOSED_FORMS, KernelSpec, validate_kernel
from .simulator import Profile, init_state, stability_bound

# -- scalar grammar --------------------------------------------------------

def parse_scalar(token: str):
    tok = token.strip()
    if tok.startswith('"') and tok.endswith('"') and len(tok) >= 2:
        return tok[1:-1]
    low = tok.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        pass
    return tok


def format_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    text = str(value)
    bare_ok = text and not any(c in text for c in " \t#[]=,\"") and not isinstance(
        parse_scalar(text), (int, float, bool)
    )
    return text if bare_ok else f'"{text}"'


def _split_list(body: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            cur.append(ch)
    if cur or parts:
        parts.append("".join(cur))
    return [p for p in (q.strip() for q in parts) if p]


def parse_value(text: str):
    tok = text.strip()
    if tok.startswith("[") and tok.endswith("]"):
        return [parse_scalar(p) for p in _split_list(tok[1:-1])]
    return parse_scalar(tok)


def format_value(value) -> str:
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(format_scalar(v) for v in value) + "]"
    return format_scalar(value)


def parse_config_text(text: str) -> dict:
    """Parse sectioned key=value text into {section: {key: value}}."""
    mapping: dict[str, dict] = {}
    first_line: dict[tuple[str, str], int] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "#" in line:
            # strip trailing comments outside quotes
            out, quoted = [], False
            for ch in line:
                if ch == '"':
                    quoted = not quoted
                if ch == "#" and not quoted:
                    break
                out.append(ch)
            line = "".join(out).strip()
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigInvalid(f"malformed section header on line {lineno}: {raw!r}")
            section = line[1:-1].strip()
            mapping.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigInvalid(f"expected key = value on line {lineno}: {raw!r}")
        if section is None:
            raise ConfigInvalid(f"key outside any [section] on line {lineno}: {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        first = first_line.setdefault((section, key), lineno)
        if first != lineno:
            raise ConfigInvalid(f"set twice, on lines {first} and {lineno}", path=f"{section}.{key}")
        mapping[section][key] = parse_value(val)
    return mapping


def serialize_config_mapping(mapping: dict) -> str:
    """Canonical text form: sections and keys in sorted order."""
    lines = []
    for section in sorted(mapping):
        lines.append(f"[{section}]")
        for key in sorted(mapping[section]):
            lines.append(f"{key} = {format_value(mapping[section][key])}")
        lines.append("")
    return "\n".join(lines)


def apply_override(mapping: dict, assignment: str) -> None:
    """Apply one ``section.key=value`` override in place."""
    if "=" not in assignment:
        raise ConfigInvalid(f"override {assignment!r} is not of the form path=value")
    path, _, val = assignment.partition("=")
    path = path.strip()
    if "." not in path:
        raise ConfigInvalid(f"override path {path!r} must be section.key", path=path)
    section, _, key = path.partition(".")
    if section not in SECTIONS:
        raise ConfigInvalid(f"unknown section {section!r}", path=path)
    mapping.setdefault(section, {})[key] = parse_value(val)


# -- scenario objects --------------------------------------------------------

@dataclass(frozen=True)
class NumericsConfig:
    dx: float
    dt: float
    T: float
    snapshot_every: float
    profile_every: float  # 0 disables intermediate profiles
    window_pad: float


def _names(record) -> set[str]:
    return {f.name for f in fields(record)}


# The keys of the sections that build a record are that record's fields.
KNOWN_KEYS = {
    "params": _names(ModelParams),
    "kernel_u": _names(KernelSpec),
    "kernel_v": _names(KernelSpec),
    "initial": {"u_profile", "u_max", "u_table", "v_profile", "v_value", "v_table"},
    "numerics": _names(NumericsConfig),
    "diagnostics": _names(DiagnosticsConfig),
    "output": {"directory"},
    "eigen": {"lengths"},
    "ode": {"u0", "v0", "T", "dt"},
    "sweep": {"cap"},
}
SECTIONS = tuple(KNOWN_KEYS)


@dataclass(frozen=True)
class ScenarioConfig:
    params: ModelParams
    kernel_u: KernelSpec
    kernel_v: KernelSpec
    u_profile: Profile
    v_profile: Profile
    numerics: NumericsConfig
    diagnostics: DiagnosticsConfig
    outdir: str
    eigen_lengths: tuple[float, ...]
    ode_init: tuple[float, float]
    ode_T: float
    ode_dt: float
    sweep_axes: dict
    sweep_cap: int
    mapping: dict = field(repr=False, compare=False, default_factory=dict)


def _finite(val) -> bool:
    """math.isfinite, also for an int beyond the float range."""
    try:
        return math.isfinite(val)
    except OverflowError:
        return False


def _number(mapping: dict, section: str, key: str, default=None, kind=(int, float)):
    """The finite number (of type ``kind``) at section.key, else ConfigInvalid."""
    val = mapping.get(section, {}).get(key, default)
    if val is None:
        raise ConfigInvalid("required value missing", path=f"{section}.{key}")
    if isinstance(val, bool) or not isinstance(val, kind):
        what = "an integer" if kind is int else "a number"
        raise ConfigInvalid(f"expected {what}, got {val!r}", path=f"{section}.{key}")
    if not _finite(val):
        raise ConfigInvalid(f"must be finite, got {val}", path=f"{section}.{key}")
    return val


def _boolean(mapping: dict, section: str, key: str, default: bool) -> bool:
    """The true/false value at section.key, else ConfigInvalid."""
    val = mapping.get(section, {}).get(key, default)
    if not isinstance(val, bool):
        raise ConfigInvalid(f"expected true or false, got {val!r}", path=f"{section}.{key}")
    return val


def _need_positive(mapping: dict, section: str, key: str, default=None) -> float:
    val = _number(mapping, section, key, default)
    if val <= 0:
        raise ConfigInvalid(f"must be a positive number, got {val}", path=f"{section}.{key}")
    return float(val)


def _get(mapping: dict, section: str, key: str, default):
    return mapping.get(section, {}).get(key, default)


def _kernel_spec(mapping: dict, section: str, base_dir: Path) -> KernelSpec:
    """The kernel of ``section``; a key that its form does not read is an error."""
    sec = mapping.get(section, {})
    form = sec.get("form", "uniform")
    if form == "tabulated":
        read = {"form", "table"}
    elif form in CLOSED_FORMS:
        read = {"form", "L0", "sigma"} if form == "truncated_gaussian" else {"form", "L0"}
    else:
        raise ConfigInvalid(f"unknown kernel form {form!r}", path=f"{section}.form")
    for key in sec:
        if key not in read:
            raise ConfigInvalid(f"not read by kernel form {form!r}", path=f"{section}.{key}")
    if form == "tabulated":
        path = sec.get("table")
        if not isinstance(path, str):
            raise ConfigInvalid("tabulated kernel needs table = <path>", path=f"{section}.table")
        return KernelSpec.tabulated(_load_table(base_dir, path, f"{section}.table"))
    L0 = _need_positive(mapping, section, "L0", 1.0)
    sigma = _need_positive(mapping, section, "sigma") if form == "truncated_gaussian" else None
    return KernelSpec(form=form, L0=L0, sigma=sigma)


def _load_table(base_dir: Path, path: str, where: str) -> np.ndarray:
    """The numeric table in the file at base_dir/path, else ConfigInvalid."""
    try:
        return np.loadtxt((base_dir / path).resolve(), dtype=float, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigInvalid(f"cannot read table: {exc}", path=where)


def _table_profile(sec: dict, base_dir: Path, name: str) -> Profile:
    """The ``{name}_table`` profile of the [initial] section ``sec``."""
    key = f"{name}_table"
    path = sec.get(key)
    if not isinstance(path, str):
        raise ConfigInvalid(f"{name} table profile needs {key} = <path>", path=f"initial.{key}")
    return Profile.from_table(_load_table(base_dir, path, f"initial.{key}"))


def _profiles(mapping: dict, base_dir: Path) -> tuple[Profile, Profile]:
    """The u and v profiles of [initial]; a key that the chosen profile kinds
    do not read is an error."""
    sec = mapping.get("initial", {})
    u_kind = sec.get("u_profile", "cosine")
    if u_kind not in ("cosine", "table"):
        raise ConfigInvalid(f"unknown u profile {u_kind!r}", path="initial.u_profile")
    v_kind = sec.get("v_profile", "constant")
    if v_kind not in ("constant", "table"):
        raise ConfigInvalid(f"unknown v profile {v_kind!r}", path="initial.v_profile")
    read = {"u_profile", "u_max" if u_kind == "cosine" else "u_table",
            "v_profile", "v_value" if v_kind == "constant" else "v_table"}
    for key in sec:
        if key not in read:
            name, kind = ("u", u_kind) if key.startswith("u_") else ("v", v_kind)
            raise ConfigInvalid(f"not read by {name} profile {kind!r}", path=f"initial.{key}")

    if u_kind == "cosine":
        u_prof = Profile.cosine(_need_positive(mapping, "initial", "u_max", 1.0))
    else:
        u_prof = _table_profile(sec, base_dir, "u")
    if v_kind == "constant":
        value = _number(mapping, "initial", "v_value", 1.0)
        if value < 0:
            raise ConfigInvalid(f"v_value must be nonnegative, got {value!r}",
                                path="initial.v_value")
        v_prof = Profile.constant(float(value))
    else:
        v_prof = _table_profile(sec, base_dir, "v")
    return u_prof, v_prof


def build_scenario(mapping: dict, base_dir: str | Path = ".") -> ScenarioConfig:
    """Validate a parsed mapping and construct the scenario.

    Raises ConfigInvalid with the offending field path on any problem,
    including a dt above the explicit-step stability bound.
    """
    base_dir = Path(base_dir)
    for section, table in mapping.items():
        if section not in SECTIONS:
            raise ConfigInvalid(f"unknown section [{section}]", path=section)
        if not isinstance(table, dict):
            raise ConfigInvalid(f"expected a table of keys, got {table!r}", path=section)
        for key in table:
            if not isinstance(key, str):
                raise ConfigInvalid(f"key {key!r} is not a string", path=section)
            if section == "sweep" and key.startswith("axis."):
                continue
            if key not in KNOWN_KEYS[section]:
                raise ConfigInvalid("unknown key", path=f"{section}.{key}")

    values = {}
    for f in fields(ModelParams):
        read = _number if f.name == "mu" else _need_positive  # mu may be zero
        values[f.name] = float(read(mapping, "params", f.name, f.default))
    if values["mu"] < 0:
        raise ConfigInvalid(f"must be a nonnegative number, got {values['mu']}", path="params.mu")
    params = ModelParams(**values)

    specs = {section: _kernel_spec(mapping, section, base_dir) for section in ("kernel_u", "kernel_v")}
    dx = _need_positive(mapping, "numerics", "dx")
    kernels = {}
    for section, spec in specs.items():
        try:
            kernels[section] = validate_kernel(spec, dx)
        except Exception as exc:
            raise ConfigInvalid(f"kernel rejected: {exc}", path=section)
    L0max = max(k.support_radius for k in kernels.values())

    dt = _need_positive(mapping, "numerics", "dt")
    T = _number(mapping, "numerics", "T", 10.0)
    if T < 0:
        raise ConfigInvalid(f"T must be nonnegative, got {T!r}", path="numerics.T")
    bound = stability_bound(params)
    if dt > bound:
        raise ConfigInvalid(
            f"dt={dt} exceeds the stability bound {bound:.6g} for these parameters",
            path="numerics.dt",
        )
    snapshot_every = _need_positive(mapping, "numerics", "snapshot_every", max(float(T) / 100.0, dt) if T else 1.0)
    profile_every = float(_number(mapping, "numerics", "profile_every", 0.0))
    if profile_every < 0:
        raise ConfigInvalid("profile_every must be >= 0", path="numerics.profile_every")
    default_pad = max(2.5 * L0max, params.h0, 10 * dx)
    window_pad = _need_positive(mapping, "numerics", "window_pad", default_pad)

    # Every default is on DiagnosticsConfig except the two that scale with h0.
    h0_scaled = {"L_dev": min(2.0 * params.h0, params.h0 + window_pad),
                 "compact_halfwidth": 2.0 * params.h0}
    diag_values = {}
    for f in fields(DiagnosticsConfig):
        read = _boolean if isinstance(f.default, bool) else _need_positive
        default = h0_scaled.get(f.name, f.default)
        diag_values[f.name] = read(mapping, "diagnostics", f.name, default)
    diag = DiagnosticsConfig(**diag_values)
    if diag.L_dev > params.h0 + window_pad:
        raise ConfigInvalid(
            f"L_dev={diag.L_dev} does not fit the initial window half-width "
            f"{params.h0 + window_pad}",
            path="diagnostics.L_dev",
        )

    u_prof, v_prof = _profiles(mapping, base_dir)
    if "table" in (u_prof.kind, v_prof.kind):
        # A table is checked by sampling the profiles as the run will.  The
        # checks above cover the cosine and constant kinds, so they skip this.
        try:
            init_state(params, kernels["kernel_u"], kernels["kernel_v"], u_prof, v_prof,
                       dx, window_pad)
        except InvalidInitialU as exc:
            # a cosine u fails here only on a subnormal u_max
            key = "u_table" if u_prof.kind == "table" else "u_max"
            raise ConfigInvalid(str(exc), path=f"initial.{key}")
        except InvalidInitialV as exc:
            raise ConfigInvalid(str(exc), path="initial.v_table")

    lengths = _get(mapping, "eigen", "lengths", [1.0, 2.0, 4.0, 8.0])
    if not isinstance(lengths, list) or not lengths or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and _finite(v) and v > 0
        for v in lengths
    ):
        raise ConfigInvalid("lengths must be a nonempty list of finite positive numbers",
                            path="eigen.lengths")

    ode_u0 = float(_number(mapping, "ode", "u0", 0.1))
    ode_v0 = float(_number(mapping, "ode", "v0", 0.1))
    for key, val in (("u0", ode_u0), ("v0", ode_v0)):
        if val < 0:
            raise ConfigInvalid("ode initial data must be nonnegative", path=f"ode.{key}")
    ode_T = float(_number(mapping, "ode", "T", 200.0))
    if ode_T < 0:
        raise ConfigInvalid(f"T must be nonnegative, got {ode_T!r}", path="ode.T")
    ode_dt = _need_positive(mapping, "ode", "dt", 0.01)

    axes = {}
    for key, val in mapping.get("sweep", {}).items():
        if not key.startswith("axis."):
            continue
        path = key[len("axis."):]
        section, _, pkey = path.partition(".")
        if section not in SECTIONS or pkey not in KNOWN_KEYS.get(section, set()):
            raise ConfigInvalid(f"axis references unknown parameter path {path!r}",
                                path=f"sweep.{key}")
        if not isinstance(val, list) or not val:
            raise ConfigInvalid("axis values must be a nonempty list", path=f"sweep.{key}")
        axes[path] = list(val)
    cap = _number(mapping, "sweep", "cap", 256, kind=int)
    if cap < 1:
        raise ConfigInvalid(f"cap must be at least 1, got {cap}", path="sweep.cap")

    normalized = copy.deepcopy(mapping)
    normalized.setdefault("numerics", {}).setdefault("snapshot_every", snapshot_every)
    normalized["numerics"].setdefault("window_pad", window_pad)

    return ScenarioConfig(
        params=params,
        kernel_u=specs["kernel_u"],
        kernel_v=specs["kernel_v"],
        u_profile=u_prof,
        v_profile=v_prof,
        numerics=NumericsConfig(
            dx=dx, dt=dt, T=float(T), snapshot_every=snapshot_every,
            profile_every=profile_every, window_pad=window_pad,
        ),
        diagnostics=diag,
        outdir=str(_get(mapping, "output", "directory", "out")),
        eigen_lengths=tuple(float(v) for v in lengths),
        ode_init=(ode_u0, ode_v0),
        ode_T=ode_T,
        ode_dt=ode_dt,
        sweep_axes=axes,
        sweep_cap=cap,
        mapping=normalized,
    )


def load_scenario(path: str | Path, overrides: list[str] | None = None) -> ScenarioConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config: {exc}")
    mapping = parse_config_text(text)
    for assignment in overrides or []:
        apply_override(mapping, assignment)
    return build_scenario(mapping, base_dir=path.parent)
