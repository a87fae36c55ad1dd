"""Scenario configuration: sectioned key=value text, defaults, validation.

The format is a flat TOML-like dialect: ``[section]`` headers, one
``key = value`` per line, ``#`` comments.  Values are booleans
(true/false), integers, floats, bare or quoted strings, and flat lists
``[a, b, c]`` split at their commas (a nested list is an error).  Keys may
be dotted (used by sweep axes).  A key set twice in one section, also in a
repeated ``[section]`` block, is an error.  A number must be positive and
at most 1e307; ``params.mu``, ``numerics.T`` and ``profile_every``,
``initial.v_value`` and ``ode.u0``, ``v0`` and ``T`` may also be zero, and
``sweep.cap`` is an integer of at least 1.  Every initial profile is checked
by building the run's initial state: its values must lie in [0, ``FIELD_CAP``]
and a table's x must increase strictly (a grid too large is the run's to report).
Parsing then serialising is idempotent on the normalised form, which keeps
configs diff-friendly.
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .diagnostics import DiagnosticsConfig
from .dynamics import ModelParams
from .errors import (ConfigInvalid, GridTooLarge, InvalidInitialU, InvalidInitialV,
                     NonPositiveParameter)
from .kernels import KernelSpec, validate_kernel
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


def parse_value(text: str, path: str | None = None):
    """A scalar, or a flat list of scalars; a nested list is ConfigInvalid."""
    tok = text.strip()
    if tok.startswith("[") and tok.endswith("]"):
        items = [p.strip() for p in tok[1:-1].split(",")]
        if any(p.startswith("[") for p in items):
            raise ConfigInvalid(f"lists are flat, got {tok}", path=path)
        return [parse_scalar(p) for p in items if p]
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
        mapping[section][key] = parse_value(val, f"{section}.{key}")
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
    mapping.setdefault(section, {})[key] = parse_value(val, path)


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


# The keys that each kernel form reads.
FORM_KEYS = {"uniform": {"form", "L0"}, "triangular": {"form", "L0"},
             "truncated_gaussian": {"form", "L0", "sigma"}, "tabulated": {"form", "table"}}
# Per field, each initial profile kind and the key of its data; the first is the default.
PROFILE_KEYS = {"u": {"cosine": "u_max", "table": "u_table"},
                "v": {"constant": "v_value", "table": "v_table"}}

# The keys of the sections that build a record are that record's fields.
KNOWN_KEYS = {
    "params": _names(ModelParams),
    "kernel_u": _names(KernelSpec),
    "kernel_v": _names(KernelSpec),
    "initial": {k for n, kinds in PROFILE_KEYS.items() for k in (f"{n}_profile", *kinds.values())},
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
    # a sweep cell's source: the mapping as given and the tables' directory
    mapping: dict = field(repr=False, compare=False)
    base_dir: Path = field(repr=False, compare=False)


def _number(val, path: str, low=0, closed=False, kind=(int, float)):
    """``val`` as a number above ``low`` (at least ``low`` if ``closed``) and at most
    1e307, an int if ``kind`` is int, else a float; else ConfigInvalid at ``path``."""
    if val is None:
        raise ConfigInvalid("required value missing", path=path)
    if isinstance(val, bool) or not isinstance(val, kind):
        what = "an integer" if kind is int else "a number"
        raise ConfigInvalid(f"expected {what}, got {val!r}", path=path)
    try:  # the cap keeps the defaults derived from it (2.5 * L0, 10 * dx, 2 * h0) finite
        finite = math.isfinite(val) and val <= 1e307
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ConfigInvalid(f"must be finite and at most 1e307, got {val}", path=path)
    if val < low or (val == low and not closed):
        raise ConfigInvalid(f"must be {'at least' if closed else 'above'} {low}, got {val}", path=path)
    return val if kind is int else float(val)


def _boolean(val, path: str) -> bool:
    """``val`` if it is true or false, else ConfigInvalid at ``path``."""
    if not isinstance(val, bool):
        raise ConfigInvalid(f"expected true or false, got {val!r}", path=path)
    return val


def _kernel_spec(mapping: dict, section: str, base_dir: Path) -> KernelSpec:
    """The kernel of ``section``; a key that its form does not read is an error."""
    sec = mapping.get(section, {})
    form = sec.get("form", "uniform")
    if not isinstance(form, str) or form not in FORM_KEYS:
        raise ConfigInvalid(f"unknown kernel form {form!r}", path=f"{section}.form")
    for key in sec:
        if key not in FORM_KEYS[form]:
            raise ConfigInvalid(f"not read by kernel form {form!r}", path=f"{section}.{key}")
    if form == "tabulated":
        return KernelSpec.tabulated(_table(sec, base_dir, section, "table", "tabulated kernel"))
    L0 = _number(sec.get("L0", 1.0), f"{section}.L0")
    sigma = _number(sec.get("sigma"), f"{section}.sigma") if form == "truncated_gaussian" else None
    return KernelSpec(form=form, L0=L0, sigma=sigma)


def _table(sec: dict, base_dir: Path, section: str, key: str, what: str) -> np.ndarray:
    """The numeric table in the file that ``sec[key]`` names under base_dir, else ConfigInvalid."""
    path = sec.get(key)
    if not isinstance(path, str):
        raise ConfigInvalid(f"{what} needs {key} = <path>", path=f"{section}.{key}")
    try:
        with warnings.catch_warnings(action="error"):
            return np.loadtxt((base_dir / path).resolve(), dtype=float, ndmin=2)
    except (OSError, ValueError, UserWarning) as exc:  # on an empty file numpy only warns
        raise ConfigInvalid(f"cannot read table: {exc}", path=f"{section}.{key}")


def _profiles(mapping: dict, base_dir: Path) -> list[tuple[Profile, str]]:
    """The u and v profiles of [initial], each with the path of the key that
    holds its data; a key that the chosen profile kinds do not read is an error."""
    sec = mapping.get("initial", {})
    kinds = {name: sec.get(f"{name}_profile", next(iter(keys)))  # the first kind is the default
             for name, keys in PROFILE_KEYS.items()}
    for name, kind in kinds.items():
        if not isinstance(kind, str) or kind not in PROFILE_KEYS[name]:
            raise ConfigInvalid(f"unknown {name} profile {kind!r}", path=f"initial.{name}_profile")
    for key in sec:  # a known key: u_... or v_...
        name = key[0]
        if key not in (f"{name}_profile", PROFILE_KEYS[name][kinds[name]]):
            raise ConfigInvalid(f"not read by {name} profile {kinds[name]!r}", path=f"initial.{key}")
    profiles = []
    for name, kind in kinds.items():
        key = PROFILE_KEYS[name][kind]
        if kind == "table":
            prof = Profile.from_table(_table(sec, base_dir, "initial", key, f"{name} table profile"))
        else:  # Profile.cosine(u_max) or Profile.constant(v_value); only v_value may be 0
            prof = getattr(Profile, kind)(_number(sec.get(key, 1.0), f"initial.{key}",
                                                  closed=kind == "constant"))
        profiles.append((prof, f"initial.{key}"))
    return profiles


def build_scenario(mapping: dict, base_dir: str | Path = ".") -> ScenarioConfig:
    """Validate a parsed mapping and construct the scenario.

    Raises ConfigInvalid with the offending field path on any problem,
    including a dt above the explicit-step stability bound.
    """
    base_dir = Path(base_dir).resolve()
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

    sec = mapping.get("params", {})
    params = ModelParams(**{  # mu = 0 freezes the fronts
        f.name: _number(sec.get(f.name, f.default), f"params.{f.name}", closed=f.name == "mu")
        for f in fields(ModelParams)
    })
    try:  # each general coefficient is 1 or a key checked above, except c2 = gamma * h_comp
        params.general()
    except NonPositiveParameter:
        raise ConfigInvalid("gamma * h_comp (the general form's c2) must be finite and "
                            f"positive, got {params.gamma * params.h_comp}", path="params.gamma")

    specs = {section: _kernel_spec(mapping, section, base_dir) for section in ("kernel_u", "kernel_v")}
    num = mapping.get("numerics", {})
    dx = _number(num.get("dx"), "numerics.dx")
    kernels = {}
    for section, spec in specs.items():
        try:
            kernels[section] = validate_kernel(spec, dx)
        except Exception as exc:
            raise ConfigInvalid(f"kernel rejected: {exc}", path=section)
    L0max = max(k.support_radius for k in kernels.values())

    dt = _number(num.get("dt"), "numerics.dt")
    T = _number(num.get("T", 10.0), "numerics.T", closed=True)
    bound = stability_bound(params)
    if dt > bound:
        raise ConfigInvalid(
            f"dt={dt} exceeds the stability bound {bound:.6g} for these parameters",
            path="numerics.dt",
        )
    snapshot_every = _number(num.get("snapshot_every", max(T / 100.0, dt) if T else 1.0),
                             "numerics.snapshot_every")
    profile_every = _number(num.get("profile_every", 0.0), "numerics.profile_every", closed=True)
    # Only the values a config sets are checked: the defaults derived from them
    # stay finite and positive, and a fault is reported at the key that was set.
    window_pad = (_number(num["window_pad"], "numerics.window_pad") if "window_pad" in num
                  else max(2.5 * L0max, params.h0, 10 * dx))
    h0_scaled = {"L_dev": min(2.0 * params.h0, params.h0 + window_pad),
                 "compact_halfwidth": 2.0 * params.h0}  # the rest default on DiagnosticsConfig
    sec = mapping.get("diagnostics", {})
    diag = DiagnosticsConfig(**h0_scaled | {
        f.name: (_boolean if isinstance(f.default, bool) else _number)(
            sec[f.name], f"diagnostics.{f.name}")
        for f in fields(DiagnosticsConfig) if f.name in sec
    })
    if diag.L_dev > params.h0 + window_pad:
        raise ConfigInvalid(
            f"L_dev={diag.L_dev} does not fit the initial window half-width "
            f"{params.h0 + window_pad}",
            path="diagnostics.L_dev",
        )

    (u_prof, u_key), (v_prof, v_key) = _profiles(mapping, base_dir)
    try:  # sample the profiles as the run will; a grid too large is the run's to report
        init_state(params, kernels["kernel_u"], kernels["kernel_v"], u_prof, v_prof, dx, window_pad)
    except (InvalidInitialU, InvalidInitialV) as exc:
        raise ConfigInvalid(str(exc), path=u_key if isinstance(exc, InvalidInitialU) else v_key)
    except GridTooLarge:
        pass

    lengths = mapping.get("eigen", {}).get("lengths", [1.0, 2.0, 4.0, 8.0])
    if not isinstance(lengths, list) or not lengths:
        raise ConfigInvalid(f"expected a nonempty list, got {lengths!r}", path="eigen.lengths")
    lengths = tuple(_number(v, "eigen.lengths") for v in lengths)

    ode = mapping.get("ode", {})
    ode_init = tuple(_number(ode.get(key, 0.1), f"ode.{key}", closed=True) for key in ("u0", "v0"))
    ode_T = _number(ode.get("T", 200.0), "ode.T", closed=True)
    ode_dt = _number(ode.get("dt", 0.01), "ode.dt")

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
    cap = _number(mapping.get("sweep", {}).get("cap", 256), "sweep.cap", low=1, closed=True, kind=int)

    return ScenarioConfig(
        params=params,
        kernel_u=specs["kernel_u"],
        kernel_v=specs["kernel_v"],
        u_profile=u_prof,
        v_profile=v_prof,
        numerics=NumericsConfig(
            dx=dx, dt=dt, T=T, snapshot_every=snapshot_every,
            profile_every=profile_every, window_pad=window_pad,
        ),
        diagnostics=diag,
        outdir=str(mapping.get("output", {}).get("directory", "out")),
        eigen_lengths=lengths,
        ode_init=ode_init,
        ode_T=ode_T,
        ode_dt=ode_dt,
        sweep_axes=axes,
        sweep_cap=cap,
        mapping=copy.deepcopy(mapping),
        base_dir=base_dir,
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
