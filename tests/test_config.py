import pytest

from nlinvade.config import (
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
