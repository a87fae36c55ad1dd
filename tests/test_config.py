import tempfile
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlinvade.config import (
    KNOWN_KEYS,
    SECTIONS,
    apply_override,
    build_scenario,
    parse_config_text,
    parse_value,
    serialize_config_mapping,
)
from nlinvade.dynamics import ModelParams
from nlinvade.errors import ConfigInvalid, GridTooLarge, InvalidInitialU
from nlinvade.kernels import CLOSED_FORMS, validate_kernel
from nlinvade.simulator import FIELD_CAP, Profile, _sample_u0, init_state, step

MINIMAL = """
# weak-competition demo
[params]
d1 = 1.0
d2 = 1.0
k = 0.5
h_comp = 0.5
gamma = 1.0
mu = 1.0
h0 = 1.0

[kernel_u]
form = "uniform"
L0 = 1.0

[kernel_v]
form = "uniform"
L0 = 1.0

[numerics]
dx = 0.05
dt = 0.02
T = 2.0
snapshot_every = 0.2
"""


class TestGrammar:
    def test_scalars(self):
        assert parse_value("true") is True
        assert parse_value("false") is False
        assert parse_value("3") == 3
        assert parse_value("3.5") == 3.5
        assert parse_value('"hi there"') == "hi there"
        assert parse_value("bare") == "bare"

    def test_lists(self):
        assert parse_value("[1, 2.5, x]") == [1, 2.5, "x"]
        assert parse_value("[]") == []
        assert parse_value("[a[1], b]") == ["a[1]", "b"]

    def test_lists_are_flat(self):
        with pytest.raises(ConfigInvalid, match="lists are flat"):
            parse_value("[[1, 2], 3]")
        with pytest.raises(ConfigInvalid) as err:
            parse_config_text("[sweep]\naxis.params.mu = [1, [2]]\n")
        assert err.value.path == "sweep.axis.params.mu"

    def test_comments_and_sections(self):
        mapping = parse_config_text(MINIMAL)
        assert mapping["params"]["d1"] == 1.0
        assert mapping["kernel_u"]["form"] == "uniform"

    def test_inline_comment(self):
        mapping = parse_config_text("[params]\nd1 = 2.0  # diffusivity\n")
        assert mapping["params"]["d1"] == 2.0
        mapping = parse_config_text("[params] # the model\nd1 = 1.0")
        assert mapping == {"params": {"d1": 1.0}}
        # a "#" inside quotes is part of the value
        mapping = parse_config_text('[kernel_u]\nform = "a#b"  # note\n')
        assert mapping == {"kernel_u": {"form": "a#b"}}

    def test_malformed(self):
        with pytest.raises(ConfigInvalid):
            parse_config_text("[params\nd1 = 1.0\n")
        with pytest.raises(ConfigInvalid):
            parse_config_text("d1 = 1.0\n")  # key before any section
        with pytest.raises(ConfigInvalid):
            parse_config_text("[params]\njust a line\n")

    @pytest.mark.parametrize(
        "text, lines",
        [
            ("[params]\nmu = 1.0\nmu = 50.0\n", (2, 3)),
            ("[params]\nmu = 1.0\n[ode]\nT = 1.0\n[params]\nmu = 7.0\n", (2, 6)),
        ],
        ids=["one-block", "repeated-block"],
    )
    def test_key_set_twice(self, text, lines):
        with pytest.raises(ConfigInvalid) as err:
            parse_config_text(text)
        assert err.value.path == "params.mu"
        assert f"lines {lines[0]} and {lines[1]}" in str(err.value)

    def test_round_trip_idempotent(self):
        mapping = parse_config_text(MINIMAL)
        text1 = serialize_config_mapping(mapping)
        text2 = serialize_config_mapping(parse_config_text(text1))
        assert text1 == text2


class TestOverrides:
    def test_set(self):
        mapping = parse_config_text(MINIMAL)
        apply_override(mapping, "params.mu=2.5")
        assert mapping["params"]["mu"] == 2.5

    def test_set_list(self):
        mapping = parse_config_text(MINIMAL)
        apply_override(mapping, "eigen.lengths=[1, 2, 4]")
        assert mapping["eigen"]["lengths"] == [1, 2, 4]

    def test_bad_path(self):
        mapping = parse_config_text(MINIMAL)
        with pytest.raises(ConfigInvalid):
            apply_override(mapping, "nosuch.mu=2.5")
        with pytest.raises(ConfigInvalid):
            apply_override(mapping, "params=2.5")


class TestBuild:
    def test_minimal(self):
        cfg = build_scenario(parse_config_text(MINIMAL))
        assert cfg.params.k == 0.5
        assert cfg.numerics.dt == 0.02
        assert cfg.diagnostics.eps_front == 1e-5
        assert cfg.numerics.window_pad >= 2.5  # defaulted from the kernel radius

    def test_h0_scaled_diagnostics_defaults(self):
        mapping = parse_config_text(MINIMAL)
        mapping["params"]["h0"] = 0.2
        assert "diagnostics" not in mapping
        cfg = build_scenario(mapping)
        assert cfg.diagnostics.compact_halfwidth == 0.4
        assert cfg.diagnostics.L_dev == min(0.4, 0.2 + cfg.numerics.window_pad)

    @pytest.mark.parametrize("text, expected", [("true", True), ("false", False), ("FALSE", False)])
    def test_dt_halving_override(self, text, expected):
        mapping = parse_config_text(MINIMAL)
        apply_override(mapping, f"diagnostics.dt_halving={text}")
        assert build_scenario(mapping).diagnostics.dt_halving is expected

    @pytest.mark.parametrize("text", ["no", '"false"', "1", "0", "yes"])
    def test_dt_halving_needs_a_boolean(self, text):
        mapping = parse_config_text(MINIMAL)
        apply_override(mapping, f"diagnostics.dt_halving={text}")
        with pytest.raises(ConfigInvalid) as err:
            build_scenario(mapping)
        assert err.value.path == "diagnostics.dt_halving"

    def test_dt_above_stability_bound(self):
        mapping = parse_config_text(MINIMAL)
        mapping["numerics"]["dt"] = 0.05  # bound for these params is 0.2/9
        with pytest.raises(ConfigInvalid) as err:
            build_scenario(mapping)
        assert err.value.path == "numerics.dt"

    def test_unknown_key_path_reported(self):
        mapping = parse_config_text(MINIMAL)
        mapping["params"]["zeta"] = 1.0
        with pytest.raises(ConfigInvalid) as err:
            build_scenario(mapping)
        assert err.value.path == "params.zeta"

    def test_unknown_axis_path(self):
        mapping = parse_config_text(MINIMAL)
        mapping["sweep"] = {"axis.params.zeta": [1.0, 2.0]}
        with pytest.raises(ConfigInvalid) as err:
            build_scenario(mapping)
        assert "zeta" in str(err.value)

    def test_axis_parsing(self):
        mapping = parse_config_text(MINIMAL)
        mapping["sweep"] = {"axis.params.mu": [0.1, 1.0, 10.0], "cap": 16}
        cfg = build_scenario(mapping)
        assert cfg.sweep_axes == {"params.mu": [0.1, 1.0, 10.0]}
        assert cfg.sweep_cap == 16

    @pytest.mark.parametrize(
        "section, key, value, field",
        [
            ("params", "mu", 0, lambda cfg: cfg.params.mu),
            ("numerics", "T", 0, lambda cfg: cfg.numerics.T),
            ("numerics", "profile_every", 0, lambda cfg: cfg.numerics.profile_every),
            ("initial", "v_value", 0, lambda cfg: cfg.v_profile.amplitude),
            ("ode", "u0", 0, lambda cfg: cfg.ode_init[0]),
            ("sweep", "cap", 1, lambda cfg: cfg.sweep_cap),
        ],
        ids=["mu", "T", "profile_every", "v_value", "ode.u0", "cap"],
    )
    def test_closed_lower_bound_accepted(self, section, key, value, field):
        mapping = parse_config_text(MINIMAL)
        mapping.setdefault(section, {})[key] = value
        assert field(build_scenario(mapping)) == value

    def test_nonpositive_param(self):
        mapping = parse_config_text(MINIMAL)
        mapping["params"]["d1"] = -1.0
        with pytest.raises(ConfigInvalid) as err:
            build_scenario(mapping)
        assert err.value.path == "params.d1"

    @pytest.mark.parametrize(
        "body, key",
        [
            ({"form": "uniform", "L0": 1.0, "sigma": 0.5}, "sigma"),
            ({"form": "triangular", "table": "k.txt"}, "table"),
            ({"form": "truncated_gaussian", "L0": 2.0, "sigma": 0.5, "table": "k.txt"}, "table"),
            ({"form": "tabulated", "table": "k.txt", "L0": 1.0}, "L0"),
            ({"sigma": 0}, "sigma"),  # the default form is uniform
        ],
    )
    @pytest.mark.parametrize("section", ["kernel_u", "kernel_v"])
    def test_kernel_key_not_read_by_its_form(self, section, body, key):
        mapping = parse_config_text(MINIMAL)
        mapping[section] = body
        with pytest.raises(ConfigInvalid) as err:
            build_scenario(mapping)
        assert err.value.path == f"{section}.{key}"

    @pytest.mark.parametrize(
        "body, key",
        [
            ({"u_table": "u.txt"}, "u_table"),  # the default u profile is cosine
            ({"u_profile": "cosine", "u_max": 2.0, "u_table": "u.txt"}, "u_table"),
            ({"u_profile": "table", "u_table": "u.txt", "u_max": 2.0}, "u_max"),
            ({"v_table": "v.txt"}, "v_table"),  # the default v profile is constant
            ({"v_profile": "constant", "v_value": 0.5, "v_table": 3}, "v_table"),
            ({"v_profile": "table", "v_table": "v.txt", "v_value": 1.0}, "v_value"),
        ],
    )
    def test_initial_key_not_read_by_its_kind(self, tmp_path, body, key):
        (tmp_path / "u.txt").write_text("-1 0\n0 1\n1 0\n")
        (tmp_path / "v.txt").write_text("-9 1\n9 1\n")
        mapping = parse_config_text(MINIMAL)
        mapping["initial"] = body
        with pytest.raises(ConfigInvalid) as err:
            build_scenario(mapping, base_dir=tmp_path)
        assert err.value.path == f"initial.{key}"
        assert "not read by" in str(err.value)

    def test_unread_initial_keys_of_a_bare_mapping(self):
        mapping = {"initial": {"u_table": "nope.txt", "v_table": 3, "u_max": 2.0},
                   "numerics": {"dx": 0.1, "dt": 0.02}}
        with pytest.raises(ConfigInvalid) as err:
            build_scenario(mapping)
        assert err.value.path == "initial.u_table"

    def test_table_profiles_build(self, tmp_path):
        (tmp_path / "u.txt").write_text("-1 0\n0 1\n1 0\n")
        (tmp_path / "v.txt").write_text("-9 0.5\n9 1\n")
        mapping = parse_config_text(MINIMAL)
        mapping["initial"] = {"u_profile": "table", "u_table": "u.txt",
                              "v_profile": "table", "v_table": "v.txt"}
        cfg = build_scenario(mapping, base_dir=tmp_path)
        assert cfg.u_profile.kind == "table" and cfg.v_profile.kind == "table"
        assert cfg.v_profile.table[0].tolist() == [-9.0, 0.5]

    @pytest.mark.parametrize(
        "key, table",
        [
            ("u_table", "-1 0 0\n0 1 1\n1 0 0\n"),
            ("u_table", "-2 1\n0 1\n2 1\n"),
            ("u_table", "-1 0\n0 0\n1 0\n"),
            ("u_table", "-1 0\n0 10.5\n1 0\n"),
            ("u_table", "-1 0\n0 nan\n1 0\n"),
            ("u_table", "1 0\n0 1\n-1 0\n"),
            ("u_table", "-1 0\n0 1\n0 1\n1 0\n"),
            ("u_table", "-1 0\nnan 1\n1 0\n"),
            ("v_table", "-9 1 1\n9 1 1\n"),
            ("v_table", "-9 -1\n9 1\n"),
            ("v_table", "-9 20\n9 1\n"),
            ("v_table", "9 1\n-9 0.5\n"),
            ("v_table", "-9 1\n0 1\n0 1\n9 1\n"),
            ("v_table", "-9 1\nnan 1\n9 1\n"),
            ("u_table", ""),
            ("v_table", ""),
        ],
        ids=["u-three-columns", "u-not-vanishing-outside", "u-zero-inside", "u-above-cap",
             "u-nan-inside", "u-unsorted-x", "u-repeated-x", "u-nan-x",
             "v-three-columns", "v-negative", "v-above-cap", "v-unsorted-x", "v-repeated-x",
             "v-nan-x", "u-empty-file", "v-empty-file"],
    )
    @pytest.mark.filterwarnings("error")  # numpy only warns on an empty file
    def test_rejected_initial_table(self, tmp_path, key, table):
        (tmp_path / "t.txt").write_text(table)
        mapping = parse_config_text(MINIMAL)
        mapping["initial"] = {f"{key[0]}_profile": "table", key: "t.txt"}
        with pytest.raises(ConfigInvalid) as err:
            build_scenario(mapping, base_dir=tmp_path)
        assert err.value.path == f"initial.{key}"

    @pytest.mark.parametrize(
        "key, value",
        [("u_max", 20.0), ("u_max", 1e300), ("u_max", np.nextafter(FIELD_CAP, np.inf)),
         ("v_value", 20.0), ("v_value", np.nextafter(FIELD_CAP, np.inf))],
    )
    def test_initial_value_above_field_cap_rejected(self, key, value):
        """Initial data must lie in [0, FIELD_CAP], where the first step's
        blow-up check would otherwise stop the run."""
        mapping = parse_config_text(MINIMAL)
        mapping["initial"] = {key: value}
        with pytest.raises(ConfigInvalid, match="field cap") as err:
            build_scenario(mapping)
        assert err.value.path == f"initial.{key}"
        mapping["initial"] = {key: FIELD_CAP}
        build_scenario(mapping)  # the cap itself is allowed

    @pytest.mark.parametrize(
        "table, suffix",
        [("-1 1\n0 0\n1 1\n", ""), ("0.0 one\n1.0 two\n", ".table"), ("", ".table")],
        ids=["zero-at-origin", "garbled", "empty-file"],
    )
    @pytest.mark.parametrize("section", ["kernel_u", "kernel_v"])
    @pytest.mark.filterwarnings("error")
    def test_rejected_kernel_table(self, tmp_path, section, table, suffix):
        (tmp_path / "k.txt").write_text(table)
        mapping = parse_config_text(MINIMAL)
        mapping[section] = {"form": "tabulated", "table": "k.txt"}
        with pytest.raises(ConfigInvalid) as err:
            build_scenario(mapping, base_dir=tmp_path)
        assert err.value.path == section + suffix

    @pytest.mark.parametrize("section", ["kernel_u", "kernel_v"])
    def test_gaussian_with_underflowing_edge_rejected(self, section):
        # sigma so far above L0 that erf(L0 / (sigma * sqrt(2))) is 0
        mapping = parse_config_text(MINIMAL)
        mapping[section] = {"form": "truncated_gaussian", "L0": 1e-20, "sigma": 1e307}
        with pytest.raises(ConfigInvalid, match="at the origin") as err:
            build_scenario(mapping)
        assert err.value.path == section

    @given(
        h0=st.floats(min_value=0.01, max_value=5.0),
        nodes=st.floats(min_value=0.5, max_value=400.0),
        u_max=st.sampled_from([5e-324, 1e-323, 2.5e-323, 1e-322, 1e-320, 1e-310]),
    )
    @example(h0=0.2, nodes=20.0, u_max=5e-324)  # dx = 0.01, node 0.19: rejected
    @example(h0=0.2, nodes=20.0, u_max=1e-310)
    @example(h0=0.2, nodes=2.0, u_max=5e-324)  # dx = 0.1, node 0.1: builds
    @settings(max_examples=100, deadline=None)
    def test_subnormal_u_max_rejected_where_sampling_fails(self, h0, nodes, u_max):
        """A cosine u_max is rejected at its key exactly when the sampled
        bump rounds to 0 at an inside node."""
        mapping = parse_config_text(MINIMAL)
        mapping["params"]["h0"] = h0
        mapping["numerics"]["dx"] = dx = h0 / nodes
        mapping["initial"] = {"u_max": u_max}
        try:
            cfg = build_scenario(mapping)
        except ConfigInvalid as err:
            assert err.path == "initial.u_max"
            built = False
        else:
            built = True
        x = np.arange(-int(nodes) - 2, int(nodes) + 3) * dx
        try:
            _sample_u0(Profile.cosine(u_max), x, h0)
        except InvalidInitialU:
            assert not built
        else:
            assert built and cfg.u_profile.amplitude == u_max

    def test_gaussian_kernel_needs_sigma(self):
        mapping = parse_config_text(MINIMAL)
        mapping["kernel_u"] = {"form": "truncated_gaussian", "L0": 2.0}
        with pytest.raises(ConfigInvalid):
            build_scenario(mapping)

    def test_L_dev_must_fit_window(self):
        mapping = parse_config_text(MINIMAL)
        mapping["diagnostics"] = {"L_dev": 100.0}
        with pytest.raises(ConfigInvalid) as err:
            build_scenario(mapping)
        assert err.value.path == "diagnostics.L_dev"

    @pytest.mark.parametrize(
        "mapping, path",
        [
            ({"numerics": 2}, "numerics"),
            ({"initial": ""}, "initial"),
            ({"sweep": [1, 2]}, "sweep"),
            ({"params": {1: 2.0}}, "params"),
        ],
    )
    def test_section_must_be_a_table_of_named_keys(self, mapping, path):
        with pytest.raises(ConfigInvalid) as err:
            build_scenario(mapping)
        assert err.value.path == path

    @pytest.mark.parametrize(
        "section, key, value",
        [("params", "mu", 10**400), ("sweep", "cap", -(10**400)), ("eigen", "lengths", [1.0, 10**400])],
    )
    def test_int_beyond_float_range_rejected(self, section, key, value):
        mapping = parse_config_text(MINIMAL)
        mapping.setdefault(section, {})[key] = value
        with pytest.raises(ConfigInvalid) as err:
            build_scenario(mapping)
        assert err.value.path == f"{section}.{key}"

    @pytest.mark.parametrize(
        "section, key, value",
        [("ode", "T", -1.0), ("sweep", "cap", 0), ("sweep", "cap", -3), ("eigen", "lengths", [])],
    )
    def test_out_of_range_rejected(self, section, key, value):
        mapping = parse_config_text(MINIMAL)
        mapping.setdefault(section, {})[key] = value
        with pytest.raises(ConfigInvalid) as err:
            build_scenario(mapping)
        assert err.value.path == f"{section}.{key}"


# Strings come from a small alphabet without "/", so a table path can only
# name a missing file or a directory relative to an empty base directory.
TEXT = st.text(alphabet='ab.#= "[]', max_size=6)
SCALARS = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.sampled_from([10**400, -(10**400)]),  # beyond the float range
    st.floats(),  # nan and inf included
    st.booleans(),
    TEXT,
    st.sampled_from(["uniform", "triangular", "truncated_gaussian", "tabulated", "table", "cosine"]),
)
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=4),
    st.dictionaries(TEXT, SCALARS, max_size=3),
)


def section_body(name):
    """A table of mostly known keys (some junk or not strings), or a non-table."""
    names = sorted(KNOWN_KEYS[name])
    if name == "sweep":
        names += ["axis.params.mu", "axis.params.zeta"]
    keys = st.one_of(st.sampled_from(names), TEXT, st.integers(0, 3))
    return st.one_of(
        st.dictionaries(keys, VALUES, max_size=3),
        SCALARS,
        st.lists(SCALARS, max_size=3),
    )


MAPPINGS = st.fixed_dictionaries({}, optional={name: section_body(name) for name in SECTIONS})

# Keys that only a form or profile kind other than MINIMAL's reads: setting
# one alone is a fault whatever its value.
UNREAD_BY_MINIMAL = {
    *((sec, key) for sec in ("kernel_u", "kernel_v") for key in ("sigma", "table")),
    ("initial", "u_table"),
    ("initial", "v_table"),
}


class TestBuildFuzz:
    @given(
        start_minimal=st.booleans(),
        sections=MAPPINGS,
        # rare, because an unknown section is rejected before anything else
        junk=st.sampled_from([None, None, None, "zeta", 3]),
    )
    @settings(max_examples=400, deadline=None)
    def test_builds_or_raises_config_invalid(self, start_minimal, sections, junk):
        # A table section is merged key by key into the minimal scenario, so
        # some mappings build; any other section replaces it whole.
        mapping = parse_config_text(MINIMAL) if start_minimal else {}
        if junk is not None:
            sections[junk] = {}
        for name, body in sections.items():
            if isinstance(body, dict) and isinstance(mapping.get(name), dict):
                mapping[name].update(body)
            else:
                mapping[name] = body
        with tempfile.TemporaryDirectory() as base_dir:
            try:
                build_scenario(mapping, base_dir=base_dir)
            except ConfigInvalid:
                pass

    @given(
        target=st.sampled_from(sorted((s, k) for s in SECTIONS for k in KNOWN_KEYS[s])),
        value=VALUES,
    )
    @example(target=("params", "mu"), value=-1.0)
    @example(target=("ode", "v0"), value=-1.0)
    @example(target=("initial", "u_table"), value="nope.txt")
    @example(target=("initial", "v_table"), value=3)
    # finite, but 2.5 * L0, 10 * dx or 2 * h0 overflows
    @example(target=("kernel_u", "L0"), value=7.190772539449264e+307)
    @example(target=("numerics", "dx"), value=5e307)
    @example(target=("params", "h0"), value=9e307)
    # valid alone, but c2 = gamma * h_comp underflows to 0
    @example(target=("params", "gamma"), value=5e-324)
    # valid alone, but the kernel's height overflows
    @example(target=("kernel_u", "L0"), value=5e-324)
    @settings(max_examples=400, deadline=None)
    def test_single_fault_reported_at_its_key(self, target, value):
        section, key = target
        mapping = parse_config_text(MINIMAL)
        mapping.setdefault(section, {})[key] = value
        with tempfile.TemporaryDirectory() as base_dir:
            try:
                build_scenario(mapping, base_dir=base_dir)
            except ConfigInvalid as err:
                path = err.path
            else:
                assert target not in UNREAD_BY_MINIMAL
                return
        if key in ("form", "u_profile", "v_profile"):
            # the form decides which keys of its section are read
            assert path.startswith(f"{section}.")
        elif section == "params":
            # the stability bound on numerics.dt depends on every parameter
            assert path in (f"params.{key}", "numerics.dt")
        elif section in ("kernel_u", "kernel_v"):
            # a kernel that validate_kernel rejects is reported at its section
            assert path in (f"{section}.{key}", section)
        else:
            assert path == f"{section}.{key}"


# One key of a run is set to a subnormal, a near-overflow or an ordinary
# value, and the kernels take any closed form.
RUN_KEYS = sorted([
    ("initial", "u_max"), ("initial", "v_value"), ("numerics", "dx"),
    *((sec, key) for sec in ("kernel_u", "kernel_v") for key in ("L0", "sigma")),
    *(("params", f.name) for f in fields(ModelParams)),
])
RUN_VALUES = st.one_of(st.sampled_from([5e-324, 1e-310, 1e-300, 1e-200, 1e300, 1e307]),
                       st.floats(min_value=0.01, max_value=5.0))


class TestRunFuzz:
    @given(
        target=st.sampled_from(RUN_KEYS),
        value=RUN_VALUES,
        forms=st.tuples(st.sampled_from(CLOSED_FORMS), st.sampled_from(CLOSED_FORMS)),
    )
    # u_max rounds to 0 at the inside node 0.95; the kernel's height overflows
    @example(target=("initial", "u_max"), value=5e-324, forms=("uniform", "uniform"))
    @example(target=("kernel_u", "L0"), value=1e-320, forms=("uniform", "uniform"))
    @example(target=("kernel_v", "L0"), value=5e-324, forms=("uniform", "triangular"))
    @example(target=("kernel_u", "sigma"), value=1e-310, forms=("truncated_gaussian", "uniform"))
    # 2 L0**2 underflows to 0, so the cdf is 0/0; (x / sigma) ** 2 overflows
    @example(target=("kernel_u", "L0"), value=1e-200, forms=("triangular", "uniform"))
    @example(target=("kernel_v", "sigma"), value=1e-300, forms=("uniform", "truncated_gaussian"))
    @settings(max_examples=150, deadline=None)
    def test_steps_or_fails_at_build(self, target, value, forms):
        """A config either builds a state that takes one step without a
        warning, or fails with ConfigInvalid, or needs too large a grid."""
        section, key = target
        mapping = parse_config_text(MINIMAL)
        for sec, form in zip(("kernel_u", "kernel_v"), forms):
            if sec == section and key == "sigma":
                form = "truncated_gaussian"
            mapping[sec] = {"form": form, "L0": 1.0}
            if form == "truncated_gaussian":
                mapping[sec]["sigma"] = 0.5
        mapping.setdefault(section, {})[key] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                cfg = build_scenario(mapping)
                dx = cfg.numerics.dx
                state = init_state(cfg.params, validate_kernel(cfg.kernel_u, dx),
                                   validate_kernel(cfg.kernel_v, dx), cfg.u_profile,
                                   cfg.v_profile, dx, cfg.numerics.window_pad)
            except (ConfigInvalid, GridTooLarge):
                return
            step(state, cfg.numerics.dt)
