import tempfile

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
from nlinvade.errors import ConfigInvalid

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

    def test_comments_and_sections(self):
        mapping = parse_config_text(MINIMAL)
        assert mapping["params"]["d1"] == 1.0
        assert mapping["kernel_u"]["form"] == "uniform"

    def test_inline_comment(self):
        mapping = parse_config_text("[params]\nd1 = 2.0  # diffusivity\n")
        assert mapping["params"]["d1"] == 2.0

    def test_malformed(self):
        with pytest.raises(ConfigInvalid):
            parse_config_text("[params\nd1 = 1.0\n")
        with pytest.raises(ConfigInvalid):
            parse_config_text("d1 = 1.0\n")  # key before any section
        with pytest.raises(ConfigInvalid):
            parse_config_text("[params]\njust a line\n")

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
        "table, suffix",
        [("-1 1\n0 0\n1 1\n", ""), ("0.0 one\n1.0 two\n", ".table")],
        ids=["zero-at-origin", "garbled"],
    )
    @pytest.mark.parametrize("section", ["kernel_u", "kernel_v"])
    def test_rejected_kernel_table(self, tmp_path, section, table, suffix):
        (tmp_path / "k.txt").write_text(table)
        mapping = parse_config_text(MINIMAL)
        mapping[section] = {"form": "tabulated", "table": "k.txt"}
        with pytest.raises(ConfigInvalid) as err:
            build_scenario(mapping, base_dir=tmp_path)
        assert err.value.path == section + suffix

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
                return
        if key in ("form", "u_profile", "v_profile"):
            # the form decides which keys of its section are read
            assert path.startswith(f"{section}.")
        elif section == "params":
            # the stability bound on numerics.dt depends on every parameter
            assert path in (f"params.{key}", "numerics.dt")
        else:
            assert path == f"{section}.{key}"
