import pytest

from kalisim import ConfigError, RunConfig, parse_config
from kalisim.config import SCHEMA, _shape_errors
from kalisim.core import ActivityCap, NoGuard, RefractoryGap
from kalisim.models import (
    AgeHawkesModel,
    AnalyticHawkesModel,
    AtomLattice,
    GLModel,
    LinearHawkesModel,
    TableModel,
)

LATTICE = {"family": "lattice-4.2.6", "gamma": 4, "p": 4, "delta": 0.005}
EXP_KERNEL = {"from": 0, "to": 0, "type": "exponential", "alpha": 0.3, "beta": 1.0}

FAMILIES = {
    "linear": (
        {"family": "linear", "nodes": [0], "mu": [0.5], "eps": 0.5, "kernels": [EXP_KERNEL]},
        LinearHawkesModel,
    ),
    "age": (
        {
            "family": "age",
            "nodes": [0, 1],
            "psi": {"base": 0.5, "slope": 0.2},
            "refractory": 0.1,
            "kernels": [{"from": 1, "to": 0, "type": "step", "edges": [0.0, 1.0], "values": [0.4]}],
        },
        AgeHawkesModel,
    ),
    "analytic": (
        {"family": "analytic", "nodes": [0], "psi": {"kind": "exp"}, "eps": 0.5, "kernels": [EXP_KERNEL]},
        AnalyticHawkesModel,
    ),
    "gl": (
        {
            "family": "gl",
            "nodes": [0, 1],
            "psi": {"base": 0.2, "slope": 0.5},
            "beta": [{"to": 0, "from": 1, "value": 0.3}],
            "step": 0.5,
        },
        GLModel,
    ),
    "table": (
        {
            "family": "table",
            "entries": {
                "0": [
                    {"weight": 0.5, "pieces": [], "bound": 1.0, "value": 0.5},
                    {"weight": 0.5, "pieces": [[0, -1.0, 0.0]], "bound": 1.0, "value": 0.25},
                ]
            },
        },
        TableModel,
    ),
    "lattice-4.2.6": (LATTICE, AtomLattice),
}


@pytest.mark.parametrize(
    "cfg, paths",
    [
        (
            {"model": {"family": 4, "gamma": "high"}, "rng": {"seed": 1.5}},
            ["model.family", "model.gamma", "rng.seed"],
        ),
        (
            {
                "model": {"family": "linear", "nodes": [0], "mu": [-1.0], "eps": -0.5, "kernels": [EXP_KERNEL]},
                "simulation": {"t_max": -1.0, "budget": {"max_points": 0}},
                "rng": {"runs": 0},
            },
            ["model.eps", "model.mu[*]", "rng.runs", "simulation.budget.max_points", "simulation.t_max"],
        ),
    ],
    ids=["schema", "ranges"],
)
def test_every_violation_is_reported_at_once(cfg, paths):
    with pytest.raises(ConfigError) as info:
        parse_config(cfg)
    assert sorted(v.split(":")[0].split(" ")[0] for v in info.value.violations) == paths


@pytest.mark.parametrize("p", [4.5, 3])
def test_a_weight_exponent_outside_three_to_gamma_is_refused(p):
    # the power ladder C_gamma k^{-p} needs 3 < p <= gamma = 4
    with pytest.raises(ConfigError, match=r"model\.p must lie in \(3, gamma\], got"):
        parse_config({"model": dict(LATTICE, p=p)})


@pytest.mark.parametrize(
    "family, key, value",
    [
        ("linear", "refractory", 0.1),
        ("age", "eps", 0.5),
        ("analytic", "weights", {"empty": 0.9, "ratios": {"0": 0.99}}),
        ("gl", "kernels", [EXP_KERNEL]),
        ("table", "nodes", [0]),
        ("lattice-4.2.6", "nodes", [0, 1]),
    ],
)
def test_a_key_the_family_does_not_read_is_refused(family, key, value):
    # the model would be built without it, silently
    with pytest.raises(ConfigError) as info:
        parse_config({"model": dict(FAMILIES[family][0], **{key: value})})
    assert info.value.violations == [f"model.{key}: the {family} family does not read this key"]


def test_defaults_are_filled_in():
    run = parse_config({"model": LATTICE})
    assert isinstance(run, RunConfig)
    assert (run.t_max, run.n_max, run.node, run.nodes) == (10.0, 1_000_000, 0, None)
    assert (run.budget.max_generations, run.budget.max_points) == (10_000, 1_000_000)
    assert run.guard is None
    assert (run.seed, run.runs) == (0, 1)
    assert (run.points_path, run.summary_path) == ("points.csv", None)


@pytest.mark.parametrize("key, value", [("nodes", [0, 7]), ("node", 7)])
def test_a_node_the_finite_model_lacks_is_a_config_error(key, value):
    section, _ = FAMILIES["table"]
    with pytest.raises(ConfigError, match=f"simulation.{key}: .*7"):
        parse_config({"model": section, "simulation": {key: value}})
    # an infinite network has every node
    assert parse_config({"model": LATTICE, "simulation": {"node": 7}}).node == 7


def test_a_repeated_simulation_node_is_a_config_error():
    section, _ = FAMILIES["linear"]
    with pytest.raises(ConfigError, match=r"simulation.nodes: \[0\] are listed more than once"):
        parse_config({"model": section, "simulation": {"nodes": [0, 0]}})


@pytest.mark.parametrize(
    "section, kind, check",
    [
        ({"type": "none"}, NoGuard, lambda g: True),
        ({"type": "refractory", "delta": 0.25}, RefractoryGap, lambda g: g.delta == 0.25),
        ({"type": "activity", "t": 2.0, "k": 5}, ActivityCap, lambda g: (g.t, g.k) == (2.0, 5)),
    ],
    ids=["none", "refractory", "activity"],
)
def test_each_guard_type_is_built(section, kind, check):
    guard = parse_config({"model": dict(LATTICE, guard=section)}).guard
    assert isinstance(guard, kind)
    assert check(guard)


@pytest.mark.parametrize(
    "section, message",
    [
        ({"type": "fence"}, "unknown guard 'fence'"),
        ({"type": "refractory"}, "missing key 'delta'"),
        ({"type": "refractory", "delta": -1.0}, "refractory length must be positive"),
        ({"type": "activity", "t": 2.0}, "missing key 'k'"),
    ],
    ids=["unknown", "missing-delta", "negative-delta", "missing-k"],
)
def test_bad_guard_raises_config_error(section, message):
    with pytest.raises(ConfigError, match=message):
        parse_config({"model": dict(LATTICE, guard=section)})


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_each_family_builds(family):
    section, cls = FAMILIES[family]
    assert isinstance(parse_config({"model": section}).build_model(), cls)


@pytest.mark.parametrize(
    "cfg, key",
    [
        ({"model": dict(LATTICE, gama=4)}, "gama"),
        ({"model": LATTICE, "simulation": {"window": [0.0, 1.0]}}, "window"),
        ({"model": LATTICE, "rng": {"sead": 1}}, "sead"),
        ({"model": LATTICE, "output": {"ledger": "ledger.json"}}, "ledger"),
    ],
    ids=["model", "simulation", "rng", "output"],
)
def test_unknown_key_is_rejected_by_name(cfg, key):
    with pytest.raises(ConfigError) as info:
        parse_config(cfg)
    assert len(info.value.violations) == 1
    assert f"'{key}' was unexpected" in info.value.violations[0]


# the one intended difference from jsonschema, which accepts every float as a number
NON_FINITE = [
    ({"model": dict(LATTICE, delta=float("nan"))}, "model.delta: nan is not a finite number"),
    ({"model": LATTICE, "simulation": {"t_max": float("inf")}}, "simulation.t_max: inf is not a finite number"),
    ({"model": dict(FAMILIES["linear"][0], mu=[0.5, -float("inf")])}, "model.mu.1: -inf is not a finite number"),
    (
        {"model": dict(FAMILIES["linear"][0], kernels=[dict(EXP_KERNEL, edges=[float("nan")])])},
        "model.kernels.0.edges.0: nan is not a finite number",
    ),
    # free-form sections too
    ({"model": dict(FAMILIES["age"][0], psi={"base": float("nan")})}, "model.psi.base: nan is not a finite number"),
    (
        {"model": dict(FAMILIES["gl"][0], beta=[{"to": 0, "from": 1, "value": float("inf")}])},
        "model.beta.0.value: inf is not a finite number",
    ),
]


@pytest.mark.parametrize("cfg, violation", NON_FINITE, ids=["nan", "infinity", "in-array", "nested", "free-form", "free-form-array"])
def test_a_non_finite_number_is_rejected_by_path(cfg, violation):
    with pytest.raises(ConfigError) as info:
        parse_config(cfg)
    assert info.value.violations == [violation]


@pytest.mark.parametrize(
    "family, change, violation",
    [
        ("age", {"omega": {"0": [[0], [0, 5]]}}, "model: omega levels of node 0 reference unknown nodes [5]"),
        ("age", {"kernels": [dict(EXP_KERNEL, to=7)]}, "model: kernel (7,0) references an unknown node"),
        ("analytic", {"kernels": [dict(EXP_KERNEL, **{"from": 7})]}, "model: kernel (0,7) references an unknown node"),
        ("gl", {"beta": [{"to": 7, "from": 1, "value": 0.3}]}, "model: beta (7,1) references an unknown node"),
        ("age", {"omega": {"5": [[5], [5, 0]]}}, "model: omega names unknown nodes [5]"),
        ("gl", {"omega": {"7": [[7]]}}, "model: omega names unknown nodes [7]"),
    ],
    ids=["age-level", "age-kernel", "analytic-kernel", "gl-beta", "age-levels-for", "gl-levels-for"],
)
def test_a_reference_to_an_unknown_node_is_rejected(family, change, violation):
    with pytest.raises(ConfigError) as info:
        parse_config({"model": dict(FAMILIES[family][0], **change)})
    assert info.value.violations == [violation]


def test_gl_levels_are_checked():
    with pytest.raises(ConfigError) as info:
        parse_config({"model": dict(FAMILIES["gl"][0], omega={"0": [[0], [0, 1], [0]]})})
    assert info.value.violations == ["model: omega levels of node 0 must be nested"]


def test_gl_levels_reach_the_model():
    section = dict(FAMILIES["gl"][0], omega={"0": [[0], [0, 1], [0, 1]]})
    model = parse_config({"model": section}).build_model()
    assert model._levels == {0: [(0,), (0, 1), (0, 1)], 1: [(1,), (0, 1)]}


def test_an_analytic_node_that_no_kernel_drives_builds():
    model = parse_config({"model": dict(FAMILIES["analytic"][0], nodes=[0, 1])}).build_model()
    assert model.node_set() == (0, 1)
    assert model.weights[1].p_empty == 1.0


def test_a_missing_bin_ratio_names_the_field_and_node():
    section = dict(FAMILIES["linear"][0], weights={"shares": {"0": 1.0}})
    with pytest.raises(ConfigError) as info:
        parse_config({"model": section})
    assert info.value.violations == ["model.weights.ratios: no ratio for node 0"]


STEP_KERNEL = {"from": 0, "to": 0, "type": "step", "edges": [0.0, 1.0], "values": [0.4]}


@pytest.mark.parametrize("trunc", ["x", 2.5, 0, -3, True, [2]], ids=["string", "fraction", "zero", "negative", "bool", "list"])
def test_a_bad_bin_truncation_names_the_field_and_node(trunc):
    # the step kernel reaches back 1.0, two bins of 0.5, so a truncation at 2 or more is valid
    weights = {"shares": {"0": 1.0}, "ratios": {"0": 0.5}, "trunc": {"0": trunc}}
    section = dict(FAMILIES["linear"][0], kernels=[STEP_KERNEL], weights=weights)
    with pytest.raises(ConfigError) as info:
        parse_config({"model": section})
    assert info.value.violations == [f"model.weights.trunc.0: {trunc!r} is not a positive integer or null"]


@pytest.mark.parametrize("trunc, nmax", [(2, 2), (3.0, 3), (None, None)])
def test_a_bin_truncation_reaches_the_model_as_an_integer(trunc, nmax):
    weights = {"shares": {"0": 1.0}, "ratios": {"0": 0.5}, "trunc": {"0": trunc}}
    section = dict(FAMILIES["linear"][0], kernels=[STEP_KERNEL], weights=weights)
    got = parse_config({"model": section}).build_model().weights[0].trunc[0]
    assert got == nmax and type(got) is type(nmax)


def test_a_weights_section_is_the_family_every_node_samples_from():
    # given weights are used as they are, not replaced by the mean-field default
    weights = {"empty": 0.35, "shares": {"0": 1.0}, "ratios": {"0": 0.8}, "trunc": {"0": None}}
    model = parse_config({"model": dict(FAMILIES["linear"][0], weights=weights)}).build_model()
    fam = model.weights[0]
    assert (fam.p_empty, fam.shares, fam.ratios, fam.trunc) == (0.35, {0: 1.0}, {0: 0.8}, {0: None})


# Malformed configs for the differential test below: wrong types at each
# level, bools where numbers go, integer-valued floats for integer fields,
# bad array items, unknown keys in each section, missing model and family.
SHAPE_CORPUS = [
    {},
    [],
    "model",
    None,
    {"model": None},
    {"model": []},
    {"model": {}},
    {"model": {"gamma": 4}},
    {"model": {"family": None}},
    {"model": {"family": 4, "gamma": "high"}, "rng": {"seed": 1.5}},
    {"model": dict(LATTICE, gama=4, zeta=1)},
    {"model": dict(LATTICE, gamma=True, p=False)},
    {"model": dict(LATTICE, psi=[], weights="w", guard=1, entries=[], beta={}, saturation=0)},
    {"model": dict(FAMILIES["linear"][0], mu=[0.5, "a", None, True, [1.0]])},
    {"model": dict(FAMILIES["linear"][0], nodes=[0.0, 1.5, "2", True])},
    {"model": dict(FAMILIES["linear"][0], mu=0.5, nodes=0, kernels={})},
    {"model": dict(FAMILIES["linear"][0], kernels=[3, {}, {"from": "0", "to": 0.0, "type": "gauss"}])},
    {"model": dict(FAMILIES["linear"][0], kernels=[dict(EXP_KERNEL, alpha=True, beta="1", extra=1)])},
    {"model": dict(FAMILIES["linear"][0], kernels=[dict(EXP_KERNEL, type=None, edges=[0, "x"], values=5)])},
    {"model": LATTICE, "simulation": None},
    {"model": LATTICE, "simulation": {"t_max": "10", "n_max": 2.0, "node": 1.5, "nodes": [0, 1.0, False]}},
    {"model": LATTICE, "simulation": {"t_max": True, "window": [0, 1], "budget": []}},
    {"model": LATTICE, "simulation": {"budget": {"max_points": 1.5, "max_generations": "9", "depth": 2}}},
    {"model": LATTICE, "rng": {"seed": True, "runs": 2.0, "sead": 1}},
    {"model": LATTICE, "rng": [1]},
    {"model": LATTICE, "output": {"points": 1, "summary": None, "ledger": "l.json"}},
    {"model": LATTICE, "output": "out.csv", "extra": {"anything": 1}},
    {"simulation": {"t_max": "x"}, "rng": {"runs": "y"}},
    {"model": LATTICE, "simulation": {"t_max": 5.0, "n_max": 3}, "rng": {"seed": 7, "runs": 2}},
    {"model": FAMILIES["table"][0], "output": {"points": "p.csv", "summary": "s.json"}},
]


def walker_violations(cfg):
    found = []
    _shape_errors(cfg, SCHEMA, (), found)
    return [(".".join(map(str, path)), message) for path, message in sorted(found, key=lambda e: e[0])]


@pytest.mark.parametrize("cfg", SHAPE_CORPUS, ids=range(len(SHAPE_CORPUS)))
def test_shape_check_agrees_with_jsonschema(cfg):
    jsonschema = pytest.importorskip("jsonschema")
    reference = sorted(jsonschema.Draft202012Validator(SCHEMA).iter_errors(cfg), key=lambda e: list(e.absolute_path))
    expected = [(".".join(map(str, e.absolute_path)), e.message) for e in reference]
    assert walker_violations(cfg) == expected


@pytest.mark.parametrize("cfg, violation", NON_FINITE, ids=["nan", "infinity", "in-array", "nested", "free-form", "free-form-array"])
def test_shape_check_rejects_non_finite_numbers_jsonschema_accepts(cfg, violation):
    jsonschema = pytest.importorskip("jsonschema")
    assert list(jsonschema.Draft202012Validator(SCHEMA).iter_errors(cfg)) == []
    assert [f"{path}: {message}" for path, message in walker_violations(cfg)] == [violation]
