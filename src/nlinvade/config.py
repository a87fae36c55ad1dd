"""Scenario configuration: sectioned key=value text, defaults, validation.

The format is a flat TOML-like dialect: ``[section]`` headers, one
``key = value`` per line, ``#`` comments.  Values are booleans
(true/false), integers, floats, bare or quoted strings, and flat lists
``[a, b, c]``.  Keys may be dotted (used by sweep axes).  Parsing then
serialising is idempotent on the normalised form, which keeps configs
diff-friendly and sweep overrides deterministic.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .dynamics import ModelParams, validate_params
from .errors import ConfigInvalid
from .kernels import KernelSpec, validate_kernel
from .simulator import Profile, stability_bound

SECTIONS = (
    "params",
    "kernel_u",
    "kernel_v",
    "initial",
    "numerics",
    "diagnostics",
    "output",
    "eigen",
    "ode",
    "sweep",
)

KNOWN_KEYS = {
    "params": {"d1", "d2", "k", "h_comp", "gamma", "mu", "h0"},
    "kernel_u": {"form", "L0", "sigma", "table"},
    "kernel_v": {"form", "L0", "sigma", "table"},
    "initial": {"u_profile", "u_max", "u_table", "v_profile", "v_value", "v_table"},
    "numerics": {"dx", "dt", "T", "snapshot_every", "profile_every", "window_pad"},
    "diagnostics": {
        "eps_front",
        "eps_mass",
        "L_dev",
        "compact_halfwidth",
        "eigen_tol",
        "center_tol",
        "sup_u_tol",
        "v_recovery_tol",
        "mass_decay_factor",
        "comparison_slack",
        "dt_halving",
    },
    "output": {"directory", "seed"},
    "eigen": {"lengths"},
    "ode": {"u0", "v0", "T", "dt"},
    "sweep": {"cap"},
}


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
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "#" in line and not line.startswith("["):
            # strip trailing comments outside quotes
            out, quoted = [], False
            for ch in line:
                if ch == '"':
                    quoted = not quoted
                if ch == "#" and not quoted:
                    break
                out.append(ch)
            line = "".join(out).strip()
            if not line:
                continue
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
        mapping[section][key.strip()] = parse_value(val)
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


@dataclass(frozen=True)
class DiagnosticsConfig:
    eps_front: float = 1e-5
    eps_mass: float = 1e-3
    L_dev: float = 2.0
    compact_halfwidth: float = 2.0
    eigen_tol: float = 5e-3
    center_tol: float = 1e-2
    sup_u_tol: float = 5e-2
    v_recovery_tol: float = 5e-2
    mass_decay_factor: float = 100.0
    comparison_slack: float = 5e-3
    dt_halving: bool = False


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
    seed: Optional[int]
    eigen_lengths: tuple[float, ...]
    ode_init: tuple[float, float]
    ode_T: float
    ode_dt: float
    sweep_axes: dict
    sweep_cap: int
    mapping: dict = field(repr=False, compare=False, default_factory=dict)


def _number(mapping: dict, section: str, key: str, default=None, kind=(int, float)):
    """The finite number (of type ``kind``) at section.key, else ConfigInvalid."""
    val = mapping.get(section, {}).get(key, default)
    if val is None:
        raise ConfigInvalid("required value missing", path=f"{section}.{key}")
    if isinstance(val, bool) or not isinstance(val, kind):
        what = "an integer" if kind is int else "a number"
        raise ConfigInvalid(f"expected {what}, got {val!r}", path=f"{section}.{key}")
    if not math.isfinite(val):
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
    sec = mapping.get(section, {})
    form = sec.get("form", "uniform")
    if form in ("uniform", "triangular"):
        return KernelSpec(form=form, L0=_need_positive(mapping, section, "L0", 1.0))
    if form == "truncated_gaussian":
        return KernelSpec(
            form=form,
            L0=_need_positive(mapping, section, "L0", 1.0),
            sigma=_need_positive(mapping, section, "sigma", None),
        )
    if form == "tabulated":
        path = sec.get("table")
        if not isinstance(path, str):
            raise ConfigInvalid("tabulated kernel needs table = <path>", path=f"{section}.table")
        return KernelSpec.tabulated(_load_table(base_dir, path, f"{section}.table"))
    raise ConfigInvalid(f"unknown kernel form {form!r}", path=f"{section}.form")


def _load_table(base_dir: Path, path: str, where: str) -> np.ndarray:
    """The numeric table in the file at base_dir/path, else ConfigInvalid."""
    try:
        return np.loadtxt((base_dir / path).resolve(), dtype=float, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigInvalid(f"cannot read table: {exc}", path=where)


def _profiles(mapping: dict, base_dir: Path, h0: float) -> tuple[Profile, Profile]:
    sec = mapping.get("initial", {})
    u_kind = sec.get("u_profile", "cosine")
    if u_kind == "cosine":
        u_prof = Profile.cosine(_need_positive(mapping, "initial", "u_max", 1.0))
    elif u_kind == "table":
        path = sec.get("u_table")
        if not isinstance(path, str):
            raise ConfigInvalid("u table profile needs u_table = <path>", path="initial.u_table")
        u_prof = Profile.from_table(_load_table(base_dir, path, "initial.u_table"))
    else:
        raise ConfigInvalid(f"unknown u profile {u_kind!r}", path="initial.u_profile")

    v_kind = sec.get("v_profile", "constant")
    if v_kind == "constant":
        value = _number(mapping, "initial", "v_value", 1.0)
        if value < 0:
            raise ConfigInvalid(f"v_value must be nonnegative, got {value!r}",
                                path="initial.v_value")
        v_prof = Profile.constant(float(value))
    elif v_kind == "table":
        path = sec.get("v_table")
        if not isinstance(path, str):
            raise ConfigInvalid("v table profile needs v_table = <path>", path="initial.v_table")
        v_prof = Profile.from_table(_load_table(base_dir, path, "initial.v_table"))
    else:
        raise ConfigInvalid(f"unknown v profile {v_kind!r}", path="initial.v_profile")
    return u_prof, v_prof


def build_scenario(mapping: dict, base_dir: str | Path = ".") -> ScenarioConfig:
    """Validate a parsed mapping and construct the scenario.

    Raises ConfigInvalid with the offending field path on any problem,
    including a dt above the explicit-step stability bound.
    """
    base_dir = Path(base_dir)
    for section in mapping:
        if section not in SECTIONS:
            raise ConfigInvalid(f"unknown section [{section}]", path=section)
        for key in mapping[section]:
            if section == "sweep" and key.startswith("axis."):
                continue
            if key not in KNOWN_KEYS[section]:
                raise ConfigInvalid("unknown key", path=f"{section}.{key}")

    try:
        params = ModelParams(
            d1=_need_positive(mapping, "params", "d1", 1.0),
            d2=_need_positive(mapping, "params", "d2", 1.0),
            k=_need_positive(mapping, "params", "k", 0.5),
            h_comp=_need_positive(mapping, "params", "h_comp", 0.5),
            gamma=_need_positive(mapping, "params", "gamma", 1.0),
            mu=float(_number(mapping, "params", "mu", 1.0)),
            h0=_need_positive(mapping, "params", "h0", 1.0),
        )
        validate_params(params)
    except ValueError as exc:
        raise ConfigInvalid(str(exc), path="params")

    kernel_u = _kernel_spec(mapping, "kernel_u", base_dir)
    kernel_v = _kernel_spec(mapping, "kernel_v", base_dir)
    try:
        ku = validate_kernel(kernel_u, _need_positive(mapping, "numerics", "dx", None))
        kv = validate_kernel(kernel_v, _need_positive(mapping, "numerics", "dx", None))
    except ConfigInvalid:
        raise
    except Exception as exc:
        raise ConfigInvalid(f"kernel rejected: {exc}", path="kernel_u/kernel_v")
    L0max = max(ku.support_radius, kv.support_radius)

    dx = _need_positive(mapping, "numerics", "dx", None)
    dt = _need_positive(mapping, "numerics", "dt", None)
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

    L_dev_default = min(2.0 * params.h0, params.h0 + window_pad)
    diag = DiagnosticsConfig(
        eps_front=_need_positive(mapping, "diagnostics", "eps_front", 1e-5),
        eps_mass=_need_positive(mapping, "diagnostics", "eps_mass", 1e-3),
        L_dev=_need_positive(mapping, "diagnostics", "L_dev", L_dev_default),
        compact_halfwidth=_need_positive(mapping, "diagnostics", "compact_halfwidth", 2.0 * params.h0),
        eigen_tol=_need_positive(mapping, "diagnostics", "eigen_tol", 5e-3),
        center_tol=_need_positive(mapping, "diagnostics", "center_tol", 1e-2),
        sup_u_tol=_need_positive(mapping, "diagnostics", "sup_u_tol", 5e-2),
        v_recovery_tol=_need_positive(mapping, "diagnostics", "v_recovery_tol", 5e-2),
        mass_decay_factor=_need_positive(mapping, "diagnostics", "mass_decay_factor", 100.0),
        comparison_slack=_need_positive(mapping, "diagnostics", "comparison_slack", 5e-3),
        dt_halving=_boolean(mapping, "diagnostics", "dt_halving", False),
    )
    if diag.L_dev > params.h0 + window_pad:
        raise ConfigInvalid(
            f"L_dev={diag.L_dev} does not fit the initial window half-width "
            f"{params.h0 + window_pad}",
            path="diagnostics.L_dev",
        )

    u_prof, v_prof = _profiles(mapping, base_dir, params.h0)

    seed = _get(mapping, "output", "seed", None)
    if seed is not None and not isinstance(seed, int):
        raise ConfigInvalid("seed must be an integer", path="output.seed")

    lengths = _get(mapping, "eigen", "lengths", [1.0, 2.0, 4.0, 8.0])
    if not isinstance(lengths, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and v > 0 for v in lengths
    ):
        raise ConfigInvalid("lengths must be a list of positive numbers", path="eigen.lengths")

    ode_u0 = float(_number(mapping, "ode", "u0", 0.1))
    ode_v0 = float(_number(mapping, "ode", "v0", 0.1))
    if ode_u0 < 0 or ode_v0 < 0:
        raise ConfigInvalid("ode initial data must be nonnegative", path="ode.u0")
    ode_T = float(_number(mapping, "ode", "T", 200.0))
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

    normalized = copy.deepcopy(mapping)
    normalized.setdefault("numerics", {}).setdefault("snapshot_every", snapshot_every)
    normalized["numerics"].setdefault("window_pad", window_pad)

    return ScenarioConfig(
        params=params,
        kernel_u=kernel_u,
        kernel_v=kernel_v,
        u_profile=u_prof,
        v_profile=v_prof,
        numerics=NumericsConfig(
            dx=dx, dt=dt, T=float(T), snapshot_every=snapshot_every,
            profile_every=profile_every, window_pad=window_pad,
        ),
        diagnostics=diag,
        outdir=str(_get(mapping, "output", "directory", "out")),
        seed=seed,
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
