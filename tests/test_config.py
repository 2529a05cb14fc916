"""YAML configuration loading and validation.

Covers:
  - minimal robot-only file falls back to documented defaults
  - the presets load to equal Configs with libyaml's loader and without it
  - unknown keys rejected with their full path, in every section
  - a section other than robot is a mapping, or null/absent for its
    defaults: [], 0, false, '' and a string raise "<section>: not a mapping"
  - lumped p vs physical constants, including the p-wins warning
  - controller gains validated against the d4(0) > 0 requirement and a
    finite z offset (det Md(0) > 0: test_cli and the property examples)
  - disturbance parsing errors surface with position info (a bad character
    after whitespace named at its own position)
  - adaptive section: gamma scalar/matrix, theta_hat0; adaptive.enabled is unknown
  - non-finite list entries (index in the path) and gamma rejected; list entries
    follow the scalar number rule (YAML 1.1 strings such as 1e-3 load)
  - mode/disturbance/adaptive cross-checks
  - simulation.t_end bounded by MAX_STEPS steps of dt (at the limit loads)
  - verify options plumbing: only seed and counterexample load; the six grid
    sizes, verify.derivatives and verify.psi3_offset are unknown keys
  - Config.scenario() produces a runnable Scenario
  - property (hypothesis): numeric entries of a valid config mutated to edge
    values (0, -1, 5e-324, 1e-300, 1e300, 1.7e308, ...) raise only ConfigError,
    and a config that loads runs region_rho and verify_all (its fixed grids)
    (the unmutated config of either base loads);
    explicit examples: p3 = 1e200, m1 = m2 = l1 = 1e200, k2 = 1 (det Md(0) < 0),
    psi40 = k1 = 1e-300 (z offset divides by 0), counterexample b = 1e300
  - property (hypothesis), same mutations: a config that loads runs 5 steps of
    simulate.run to a Trace (ok or region_exit) or raises NonFiniteState
"""
import copy
import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ripsim.config import Config, ConfigError, load_config
from ripsim.controller import region_rho
from ripsim.regressor import ParseError
from ripsim.simulate import MAX_STEPS, NonFiniteState, Scenario, run
from ripsim.verify import VerifyOptions, verify_all

MINIMAL = "robot: {p: [2.0, 1.0, 1.0, 2.0, 1.0]}\n"


def write(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_minimal_defaults(tmp_path):
    cfg = load_config(write(tmp_path, MINIMAL))
    assert (cfg.params.p1, cfg.params.p4) == (2.0, 2.0)
    assert (cfg.gains.psi40, cfg.gains.k1, cfg.gains.k2) == (1.0, 0.1, 100.0)
    assert (cfg.gains.kappa, cfg.gains.kv) == (1.0, 1.0)
    assert cfg.mode == "nominal"
    assert cfg.q0 == (0.0, 0.0) and cfg.qdot0 == (0.0, 0.0)
    assert (cfg.dt, cfg.t_end) == (1e-3, 30.0)
    assert cfg.disturbance is None and cfg.adaptive is None
    assert cfg.out_dir == "." and cfg.plots is True
    assert cfg.verify == VerifyOptions()


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "absent.yaml"))


def test_invalid_yaml(tmp_path):
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(write(tmp_path, "robot: [unclosed\n"))


def test_presets_load_alike_on_both_yaml_loaders(tmp_path, monkeypatch):
    # load_config parses with libyaml's CSafeLoader when PyYAML has it, and falls back
    # to the pure-Python SafeLoader: every preset loads to the same Config either way
    presets = sorted((Path(__file__).parent.parent / "presets").glob("*.yaml"))
    assert len(presets) == 5
    loaded = [load_config(str(path)) for path in presets]
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert [load_config(str(path)) for path in presets] == loaded
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(write(tmp_path, "robot: [unclosed\n"))


def test_top_level_must_be_mapping(tmp_path):
    with pytest.raises(ConfigError, match="top level"):
        load_config(write(tmp_path, "- 1\n- 2\n"))


def test_robot_section_required(tmp_path):
    with pytest.raises(ConfigError, match="robot"):
        load_config(write(tmp_path, "controller: {kv: 2.0}\n"))


@pytest.mark.parametrize("text,path", [
    ("robot: {p: [2,1,1,2,1]}\nbogus: 1\n", r"config\.bogus"),
    ("robot: {p: [2,1,1,2,1], mass: 3}\n", r"robot\.mass"),
    (MINIMAL + "controller: {Kv: 2}\n", r"controller\.Kv"),
    (MINIMAL + "simulation: {step: 1e-3}\n", r"simulation\.step"),
    (MINIMAL + "disturbance: {f: ['1'], theta: [1], seed: 0}\n",
     r"disturbance\.seed"),
    (MINIMAL + "verify: {cells: 100}\n", r"verify\.cells"),
    (MINIMAL + "output: {folder: x}\n", r"output\.folder"),
])
def test_unknown_keys_rejected_with_path(tmp_path, text, path):
    with pytest.raises(ConfigError, match=path):
        load_config(write(tmp_path, text))


SECTIONS = ("controller", "simulation", "disturbance", "adaptive", "verify", "output")


@pytest.mark.parametrize("value", ["[]", "0", "false", "''", "x"])
@pytest.mark.parametrize("section", SECTIONS)
def test_section_must_be_a_mapping(tmp_path, section, value):
    with pytest.raises(ConfigError, match=rf"^{section}: not a mapping"):
        load_config(write(tmp_path, MINIMAL + f"{section}: {value}\n"))


@pytest.mark.parametrize("value", ["[]", "0", "false", "''", "x"])
def test_counterexample_must_be_a_mapping(tmp_path, value):
    text = MINIMAL + f"verify: {{counterexample: {value}}}\n"
    with pytest.raises(ConfigError, match=r"^verify\.counterexample: not a mapping"):
        load_config(write(tmp_path, text))


def test_null_sections_load_defaults(tmp_path):
    text = MINIMAL + "simulation:\noutput:\n"
    assert load_config(write(tmp_path, text)) == load_config(write(tmp_path, MINIMAL, "min.yaml"))


def test_p_vector_validated(tmp_path):
    with pytest.raises(ConfigError, match=r"robot\.p"):
        load_config(write(tmp_path, "robot: {p: [2, -1, 1, 2, 1]}\n"))
    with pytest.raises(ConfigError, match=r"robot\.p"):
        load_config(write(tmp_path, "robot: {p: [2, 1, 1]}\n"))
    with pytest.raises(ConfigError, match=r"robot\.p\[2\]"):
        load_config(write(tmp_path, "robot: {p: [2, 1, 'x', 2, 1]}\n"))


def test_physical_constants_path(tmp_path):
    text = ("robot: {m1: 0.5, m2: 0.25, l1: 0.4, l2: 0.3, "
            "I1: 0.01, I2: 0.005, g: 9.8}\n")
    cfg = load_config(write(tmp_path, text))
    assert cfg.params.p1 == pytest.approx(0.01 + 0.5 * 0.16)
    assert cfg.params.p5 == pytest.approx(0.25 * 0.3 * 9.8)


def test_p_wins_over_physical_with_warning(tmp_path):
    text = "robot: {p: [2, 1, 1, 2, 1], m1: 0.5, m2: 0.25, l1: 0.4, l2: 0.3, I1: 0.01, I2: 0.005}\n"
    with pytest.warns(UserWarning, match="p wins"):
        cfg = load_config(write(tmp_path, text))
    assert cfg.params.p1 == 2.0


def test_gains_rejected_when_d4_not_positive(tmp_path):
    text = MINIMAL + "controller: {k1: 0.6}\n"
    with pytest.raises(ConfigError, match=r"d4\(0\)"):
        load_config(write(tmp_path, text))


def test_gains_rejected_when_z_offset_not_finite(tmp_path):
    # det Md(0) > 0, but a = sqrt(p3/(k1*p2*psi40)) overflows: p3/1e-311 = inf
    text = "robot: {p: [2.0, 1.0e-300, 1.0, 2.0, 1.0]}\ncontroller: {psi40: 1.0e-10}\n"
    with pytest.raises(ConfigError, match=r"^controller: z offset"):
        load_config(write(tmp_path, text))


def test_gain_value_errors_carry_path(tmp_path):
    with pytest.raises(ConfigError, match="controller"):
        load_config(write(tmp_path, MINIMAL + "controller: {k2: -5}\n"))
    with pytest.raises(ConfigError, match=r"controller\.kv"):
        load_config(write(tmp_path, MINIMAL + "controller: {kv: true}\n"))


def test_disturbance_parse_error_chained(tmp_path):
    text = MINIMAL + "disturbance: {f: ['sin(q3)'], theta: [1.0]}\n"
    with pytest.raises(ConfigError, match="q3") as excinfo:
        load_config(write(tmp_path, text))
    assert isinstance(excinfo.value.__cause__, ParseError)


def test_disturbance_bad_character_named(tmp_path):
    text = MINIMAL + "disturbance: {f: ['q1 $'], theta: [1.0]}\n"
    with pytest.raises(ConfigError, match=r"^disturbance\.f: unexpected character '\$' at position 3"):
        load_config(write(tmp_path, text))


def test_disturbance_theta_length(tmp_path):
    text = MINIMAL + "disturbance: {f: ['1', 'q1'], theta: [1.0]}\n"
    with pytest.raises(ConfigError, match=r"disturbance\.theta"):
        load_config(write(tmp_path, text))


def test_disturbance_f_must_be_strings(tmp_path):
    text = MINIMAL + "disturbance: {f: [1.0], theta: [1.0]}\n"
    with pytest.raises(ConfigError, match=r"disturbance\.f"):
        load_config(write(tmp_path, text))


def test_adaptive_requires_disturbance(tmp_path):
    text = MINIMAL + "adaptive: {gamma: 2.0}\n"
    with pytest.raises(ConfigError, match="adaptive"):
        load_config(write(tmp_path, text))


def test_adaptive_defaults_and_scalar_gamma(tmp_path):
    text = (MINIMAL +
            "disturbance: {f: ['1', 'q1'], theta: [0.5, -0.2]}\n"
            "adaptive: {gamma: 2.0}\n")
    cfg = load_config(write(tmp_path, text))
    assert np.array_equal(cfg.adaptive.theta_hat, [0.0, 0.0])
    assert np.allclose(cfg.adaptive.gamma, 2.0 * np.eye(2))


def test_adaptive_matrix_gamma(tmp_path):
    text = (MINIMAL +
            "disturbance: {f: ['1', 'q1'], theta: [0.5, -0.2]}\n"
            "adaptive: {gamma: [[2.0, 0.5], [0.5, 3.0]], theta_hat0: [0.1, 0.2]}\n")
    cfg = load_config(write(tmp_path, text))
    assert np.allclose(cfg.adaptive.gamma, [[2.0, 0.5], [0.5, 3.0]])
    assert np.array_equal(cfg.adaptive.theta_hat, [0.1, 0.2])


def test_adaptive_matrix_gamma_shape_checked(tmp_path):
    text = (MINIMAL +
            "disturbance: {f: ['1', 'q1'], theta: [0.5, -0.2]}\n"
            "adaptive: {gamma: [[2.0, 0.0]]}\n")
    with pytest.raises(ConfigError, match=r"adaptive\.gamma"):
        load_config(write(tmp_path, text))


def test_adaptive_gamma_not_pd_rejected(tmp_path):
    text = (MINIMAL +
            "disturbance: {f: ['1', 'q1'], theta: [0.5, -0.2]}\n"
            "adaptive: {gamma: [[1.0, 5.0], [5.0, 1.0]]}\n")
    with pytest.raises(ConfigError, match="adaptive"):
        load_config(write(tmp_path, text))


def test_adaptive_gamma_positive(tmp_path):
    text = (MINIMAL +
            "disturbance: {f: ['1'], theta: [0.5]}\n"
            "adaptive: {gamma: -1.0}\n")
    with pytest.raises(ConfigError, match=r"adaptive\.gamma"):
        load_config(write(tmp_path, text))


def test_theta_hat0_length_checked(tmp_path):
    text = (MINIMAL +
            "disturbance: {f: ['1', 'q1'], theta: [0.5, -0.2]}\n"
            "adaptive: {theta_hat0: [0.1]}\n")
    with pytest.raises(ConfigError, match=r"adaptive\.theta_hat0"):
        load_config(write(tmp_path, text))


@pytest.mark.parametrize("mode", ["disturbed_nominal", "disturbed_robust"])
def test_disturbed_modes_require_disturbance(tmp_path, mode):
    text = MINIMAL + f"simulation: {{mode: {mode}}}\n"
    with pytest.raises(ConfigError, match="requires a disturbance"):
        load_config(write(tmp_path, text))


def test_adaptive_enabled_is_unknown_key(tmp_path):
    # mode alone selects adaptation: disturbed_robust runs it, the others do not
    text = (MINIMAL +
            "simulation: {mode: disturbed_robust}\n"
            "disturbance: {f: ['1'], theta: [0.5]}\n"
            "adaptive: {enabled: true}\n")
    with pytest.raises(ConfigError, match=r"adaptive\.enabled: unknown key"):
        load_config(write(tmp_path, text))


DIST2 = "disturbance: {f: ['1', 'q1'], theta: [0.5, -0.2]}\n"


@pytest.mark.parametrize("text, path", [
    ("robot: {p: [2.0, .inf, 1.0, 2.0, 1.0]}\n", r"robot\.p\[1\]"),
    (MINIMAL + "simulation: {q0: [.nan, 0.0]}\n", r"simulation\.q0\[0\]"),
    (MINIMAL + "simulation: {qdot0: [0.0, -.inf]}\n", r"simulation\.qdot0\[1\]"),
    (MINIMAL + "disturbance: {f: ['1', 'q1', 'q2'], theta: [.inf, .inf, .inf]}\n",
     r"disturbance\.theta\[0\]"),
    (MINIMAL + DIST2 + "adaptive: {theta_hat0: [0.0, .nan]}\n",
     r"adaptive\.theta_hat0\[1\]"),
    (MINIMAL + DIST2 + "adaptive: {gamma: [[1.0, 0.0], [.inf, 1.0]]}\n",
     r"adaptive\.gamma\[1\]\[0\]"),
    (MINIMAL + DIST2 + "adaptive: {gamma: .inf}\n", r"adaptive\.gamma"),
], ids=["robot.p", "q0", "qdot0", "theta", "theta_hat0", "gamma_row", "gamma_scalar"])
def test_nonfinite_list_entries_rejected(tmp_path, text, path):
    with pytest.raises(ConfigError, match=path + ": must be finite"):
        load_config(write(tmp_path, text))


def test_list_entries_follow_the_scalar_number_rule(tmp_path):
    # YAML 1.1 reads 1e-3 (no dot) as a string: a list entry loads as dt: 1e-3 does
    text = ("robot: {p: [2e0, 1.0, 1.0, 2.0, 1.0]}\n"
            "simulation: {mode: disturbed_robust, q0: [1e-3, 0.0], qdot0: [0.0, -2e-2],"
            " dt: 1e-3}\n"
            "disturbance: {f: ['1', 'q1'], theta: [5e-1, -0.2]}\n"
            "adaptive: {theta_hat0: [1e-2, 0.0], gamma: [[2e0, 0.0], [0.0, 1.0]]}\n")
    cfg = load_config(write(tmp_path, text))
    assert cfg.params.p1 == 2.0 and cfg.dt == 1e-3
    assert cfg.q0 == (1e-3, 0.0) and cfg.qdot0 == (0.0, -2e-2)
    assert cfg.disturbance.theta.tolist() == [0.5, -0.2]
    assert cfg.adaptive.theta_hat.tolist() == [1e-2, 0.0]
    assert cfg.adaptive.gamma.tolist() == [[2.0, 0.0], [0.0, 1.0]]
    for bad, message in (("q0: [abc, 0.0]", r"simulation\.q0\[0\]: expected a number, got 'abc'"),
                         ("qdot0: [0.0, nan]", r"simulation\.qdot0\[1\]: must be finite")):
        with pytest.raises(ConfigError, match=message):
            load_config(write(tmp_path, MINIMAL + f"simulation: {{{bad}}}\n"))


def test_unknown_mode(tmp_path):
    with pytest.raises(ConfigError, match=r"simulation\.mode"):
        load_config(write(tmp_path, MINIMAL + "simulation: {mode: free}\n"))


def test_bad_timestep(tmp_path):
    with pytest.raises(ConfigError, match="dt"):
        load_config(write(tmp_path, MINIMAL + "simulation: {dt: 0.0}\n"))
    with pytest.raises(ConfigError, match="dt"):
        load_config(write(tmp_path,
                          MINIMAL + "simulation: {dt: 0.5, t_end: 0.1}\n"))


def test_t_end_step_limit(tmp_path):
    at_limit = load_config(write(tmp_path, MINIMAL + "simulation: {dt: 1.0e-3, t_end: 1.0e+4}\n"))
    assert round(at_limit.t_end / at_limit.dt) == MAX_STEPS
    for t_end in ("10000.001", "1.0e+12"):
        with pytest.raises(ConfigError, match=r"simulation\.t_end: .*limit of 10000000 steps"):
            load_config(write(tmp_path, MINIMAL + f"simulation: {{dt: 1.0e-3, t_end: {t_end}}}\n"))
    with pytest.raises(ValueError, match="limit"):
        Scenario(at_limit.params, at_limit.gains, t_end=10000.001, dt=1e-3)


def test_verify_options(tmp_path):
    text = MINIMAL + "verify: {seed: 3, counterexample: {frak_k1: 2.0, b: 0.5}}\n"
    cfg = load_config(write(tmp_path, text))
    assert cfg.verify.seed == 3
    assert cfg.verify.counterexample.frak_k1 == 2.0
    assert cfg.verify.counterexample.frak_k2 == 1.0
    assert cfg.verify.counterexample.b == 0.5


def test_verify_derivatives_validated(tmp_path):
    # check 1 always runs both derivative routes, faults are planted by the
    # tests, not by the config, and the grids are fixed: a shrunk grid passes a
    # planted fault (one scan cell makes check 3's tolerance pi/2)
    for entry in ("derivatives: fd", "derivatives: exact", "psi3_offset: 0.01",
                  "grid_points: 64", "span: 1.0e-300", "planar_grid: 10", "samples: 20",
                  "scan_cells: 1", "md_scan_points: 1"):
        key = entry.split(":")[0]
        with pytest.raises(ConfigError, match=rf"verify\.{key}: unknown key"):
            load_config(write(tmp_path, MINIMAL + f"verify: {{{entry}}}\n"))


def test_verify_counterexample_positive(tmp_path):
    text = MINIMAL + "verify: {counterexample: {b: -1.0}}\n"
    with pytest.raises(ConfigError, match="must be > 0"):
        load_config(write(tmp_path, text))


def test_output_section(tmp_path):
    text = MINIMAL + "output: {dir: results, plots: false}\n"
    cfg = load_config(write(tmp_path, text))
    assert cfg.out_dir == "results" and cfg.plots is False


def test_scenario_roundtrip_runs(tmp_path):
    text = ("robot: {p: [2.0, 1.0, 1.0, 2.0, 1.0]}\n"
            "controller: {kappa: 0.5, kv: 2.0}\n"
            "simulation: {mode: disturbed_robust, q0: [0.1, 0.2], dt: 1e-3, t_end: 0.05}\n"
            "disturbance: {f: ['1', 'sin(q2)'], theta: [0.3, -0.1]}\n"
            "adaptive: {gamma: 2.0, theta_hat0: [0.05, 0.0]}\n")
    cfg = load_config(write(tmp_path, text))
    scenario = cfg.scenario()
    assert isinstance(scenario, Scenario)
    assert scenario.mode == "disturbed_robust"
    assert scenario.q0 == (0.1, 0.2)
    trace = run(scenario)
    assert trace.status == "ok"
    assert len(trace.t) == 51
    assert not np.array_equal(trace.theta_hat[-1], trace.theta_hat[0])


# the seed is the one count left in verify: an int in [0, 2**63 - 1] (the grid
# sizes are fixed; test_verify_derivatives_validated rejects them as unknown keys)
@pytest.mark.parametrize("option, key", [
    ("seed: -1", "seed"),
    ("seed: 9223372036854775808", "seed"),   # 2**63
    ("seed: 2.5", "seed"),
    ("seed: true", "seed"),                  # a YAML bool is not a count
])
def test_verify_counts_validated(tmp_path, option, key):
    with pytest.raises(ConfigError, match=rf"verify\.{key}"):
        load_config(write(tmp_path, MINIMAL + f"verify: {{{option}}}\n"))


def test_verify_counts_accept_integral_floats(tmp_path):
    cfg = load_config(write(tmp_path, MINIMAL + "verify: {seed: 3.0e+0}\n"))
    assert cfg.verify.seed == 3 and isinstance(cfg.verify.seed, int)


# Property test: every numeric entry of a valid config, mutated to edge values.
BASES = {
    "lumped": {"robot": {"p": [0.2499875, 0.03675, 0.091875, 0.049, 1.03005]}},
    "physical": {"robot": {"m1": 0.5, "m2": 0.25, "l1": 0.4, "l2": 0.3, "I1": 0.01,
                           "I2": 0.005, "g": 9.81}},
}
COMMON = {
    "controller": {"psi40": 1.0, "k1": 0.1, "k2": 100.0, "kappa": 0.5, "kv": 20.0},
    "simulation": {"mode": "disturbed_robust", "q0": [0.1, 0.2], "qdot0": [0.0, 0.0],
                   "dt": 0.001, "t_end": 1.0},
    "disturbance": {"f": ["1", "q1", "sin(q2)*cos(p1)"], "theta": [0.1, 0.1, -0.3]},
    "adaptive": {"gamma": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                 "theta_hat0": [0.0, 0.0, 0.0]},
    "verify": {"seed": 0, "counterexample": {"frak_k1": 1.0, "frak_k2": 1.0, "b": 1.0}},
}
EDGE_VALUES = [0, -1, 5e-324, 1e-300, 1e-3, 2.5, 1e6, 1e300, 1.7e308, -1.7e308]


def numeric_paths(node, path=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from numeric_paths(value, path + (key,))
        elif isinstance(value, (int, float)):
            yield path + (key,)


def mutated(base, mutations):
    doc = copy.deepcopy({**BASES[base], **COMMON})
    for path, value in mutations:
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return yaml.safe_dump(doc)


PATHS = {b: sorted(numeric_paths({**BASES[b], **COMMON}), key=str) for b in BASES}
MUTATIONS = st.sampled_from(sorted(BASES)).flatmap(lambda b: st.tuples(st.just(b), st.lists(
    st.tuples(st.sampled_from(PATHS[b]), st.sampled_from(EDGE_VALUES)),
    min_size=1, max_size=4)))


@pytest.mark.parametrize("base", sorted(BASES))
def test_unmutated_property_config_loads(tmp_path, base):
    # the property tests below run only what loads: their unmutated config must
    cfg = load_config(write(tmp_path, mutated(base, [])))
    assert cfg.mode == "disturbed_robust" and cfg.verify.seed == 0


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(MUTATIONS)
@example(("lumped", [(("robot", "p", 2), 1e200)]))    # p3 ** 2 overflowed
@example(("physical", [(("robot", "m1"), 1e200), (("robot", "m2"), 1e200),
                       (("robot", "l1"), 1e200)]))
@example(("lumped", [(("controller", "k2"), 1.0)]))
@example(("lumped", [(("controller", "psi40"), 1e-300), (("controller", "k1"), 1e-300)]))
@example(("lumped", [(("verify", "counterexample", "b"), 1e300)]))   # b ** 2 overflowed
def test_load_config_property(tmp_path_factory, case):
    base, mutations = case
    path = tmp_path_factory.getbasetemp() / "property.yaml"
    path.write_text(mutated(base, mutations))
    try:
        cfg = load_config(str(path))
    except ConfigError:
        return
    # a config that loads is ready to run: the reports may fail, nothing raises
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        region_rho(cfg.params, cfg.gains)
        verify_all(cfg.params, cfg.gains, cfg.verify)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(MUTATIONS)
@example(("lumped", [(("simulation", "qdot0", 1), 1.7e308)]))  # the 1st step is not finite
@example(("lumped", [(("controller", "psi40"), 1e-300), (("controller", "k1"), 1e-300)]))
def test_loaded_config_runs_property(tmp_path_factory, case):
    # a config that loads also runs: 5 steps (fewer when t_end is shorter) end
    # with a trace, ok or at a region exit, or raise NonFiniteState
    base, mutations = case
    path = tmp_path_factory.getbasetemp() / "property_run.yaml"
    path.write_text(mutated(base, mutations))
    try:
        cfg = load_config(str(path))
    except ConfigError:
        return
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            trace = run(dataclasses.replace(cfg, t_end=min(cfg.t_end, 5 * cfg.dt)).scenario())
        except NonFiniteState:
            return
    assert trace.status in ("ok", "region_exit")
