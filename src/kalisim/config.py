"""Run configuration: shape check, validation, model construction.

``SCHEMA`` describes a config's shape as a JSON Schema (draft 2020-12) dict,
and ``_shape_errors`` checks a config against it in the repo: the keywords
``type``, ``required``, ``enum``, ``additionalProperties: false``,
``properties`` and ``items``, with jsonschema's messages and paths. It adds
one check jsonschema lacks: every ``number``, and every float in a section
the schema leaves free-form, must be finite, since ``json`` reads ``NaN`` and
``Infinity``. Every violation found is reported at once
(shape first, then range and consistency checks), and a validated config
expands into a model instance plus filled-in simulation/rng/output sections.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

from .core import Neighborhood, RefractoryGap, ActivityCap, NoGuard, SubspaceGuard
from .errors import ConfigError
from .kernels import AffineRate, ExponentialKernel, StepKernel
from .models import (
    AgeHawkesModel,
    AnalyticHawkesModel,
    GLModel,
    LinearHawkesModel,
    PsiSeries,
    TableEntry,
    TableModel,
    lattice_preset,
)
from .perfect import BackwardBudget
from .weights import AtomicWeights, GeometricLevels

# the model keys each family reads, beside "family" and "guard"
FAMILY_KEYS = {
    "linear": {"nodes", "mu", "kernels", "eps", "weights", "bounds"},
    "age": {"nodes", "psi", "kernels", "refractory", "omega"},
    "analytic": {"nodes", "psi", "kernels", "eps", "order_ratio"},
    "gl": {"nodes", "psi", "beta", "saturation", "step", "omega", "weights"},
    "table": {"entries", "bounds"},
    "lattice-4.2.6": {"gamma", "delta", "p"},
}

_KERNEL_SCHEMA = {
    "type": "object",
    "required": ["from", "to", "type"],
    "properties": {
        "from": {"type": "integer"},
        "to": {"type": "integer"},
        "type": {"enum": ["exponential", "step"]},
        "alpha": {"type": "number"},
        "beta": {"type": "number"},
        "edges": {"type": "array", "items": {"type": "number"}},
        "values": {"type": "array", "items": {"type": "number"}},
    },
}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["model"],
    "properties": {
        "model": {
            "type": "object",
            "required": ["family"],
            "additionalProperties": False,
            "properties": {
                "family": {"type": "string"},
                "nodes": {"type": "array", "items": {"type": "integer"}},
                "mu": {"type": "array", "items": {"type": "number"}},
                "kernels": {"type": "array", "items": _KERNEL_SCHEMA},
                "eps": {"type": "number"},
                "refractory": {"type": "number"},
                "step": {"type": "number"},
                "delta": {"type": "number"},
                "gamma": {"type": "number"},
                "p": {"type": "number"},
                "psi": {"type": "object"},
                "omega": {"type": "object"},
                "weights": {"type": "object"},
                "bounds": {"type": "object"},
                "beta": {"type": "array"},
                "saturation": {"type": "array"},
                "entries": {"type": "object"},
                "order_ratio": {"type": "number"},
                "guard": {"type": "object"},
            },
        },
        "simulation": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "t_max": {"type": "number"},
                "n_max": {"type": "integer"},
                "node": {"type": "integer"},
                "nodes": {"type": "array", "items": {"type": "integer"}},
                "budget": {
                    "type": "object",
                    "properties": {
                        "max_generations": {"type": "integer"},
                        "max_points": {"type": "integer"},
                    },
                },
            },
        },
        "rng": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "seed": {"type": "integer"},
                "runs": {"type": "integer"},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "points": {"type": "string"},
                "summary": {"type": "string"},
            },
        },
    },
}


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    # JSON Schema counts 2.0 as an integer and no bool as a number
    "integer": lambda v: not isinstance(v, bool) and (isinstance(v, int) or isinstance(v, float) and v.is_integer()),
    "number": lambda v: not isinstance(v, bool) and isinstance(v, numbers.Number),
}


def _shape_errors(value, schema: dict, path: tuple, errors: list) -> None:
    """Append ``(path, message)`` for each way ``value`` breaks ``schema``,
    taking the keywords in the schema's order as jsonschema does."""
    if isinstance(value, float) and not math.isfinite(value) and schema.get("type", "number") == "number":
        errors.append((path, f"{value!r} is not a finite number"))
    for key, rule in schema.items():
        if key == "type":
            if not _TYPES[rule](value):
                errors.append((path, f"{value!r} is not of type {rule!r}"))
        elif key == "enum":
            if value not in rule:
                errors.append((path, f"{value!r} is not one of {rule!r}"))
        elif key == "items":
            if isinstance(value, list):
                for k, item in enumerate(value):
                    _shape_errors(item, rule, path + (k,), errors)
        elif not isinstance(value, dict):
            continue
        elif key == "required":
            errors.extend((path, f"{name!r} is a required property") for name in rule if name not in value)
        elif key == "additionalProperties" and not rule:
            extras = sorted(set(value) - set(schema.get("properties", ())), key=str)
            if extras:
                listed = ", ".join(repr(x) for x in extras)
                verb = "was" if len(extras) == 1 else "were"
                errors.append((path, f"Additional properties are not allowed ({listed} {verb} unexpected)"))
        elif key == "properties":
            for name, sub in rule.items():
                if name in value:
                    _shape_errors(value[name], sub, path + (name,), errors)
    # sections whose contents the schema leaves free still hold no NaN or infinity
    if isinstance(value, dict) and "properties" not in schema:
        for name, item in value.items():
            _shape_errors(item, {}, path + (name,), errors)
    elif isinstance(value, list) and "items" not in schema:
        for k, item in enumerate(value):
            _shape_errors(item, {}, path + (k,), errors)


@dataclass
class RunConfig:
    """Validated configuration with defaults filled."""

    model_section: dict
    t_max: float = 10.0
    n_max: int = 1_000_000
    node: int = 0
    nodes: Optional[tuple[int, ...]] = None
    budget: BackwardBudget = field(default_factory=BackwardBudget)
    guard: Optional[SubspaceGuard] = None
    seed: int = 0
    runs: int = 1
    points_path: str = "points.csv"
    summary_path: Optional[str] = None

    def build_model(self):
        return build_model(self.model_section)


def _positive(errors: list, section: str, name: str, value, strict=True) -> None:
    if value is None:
        return
    if strict and value <= 0:
        errors.append(f"{section}.{name} must be > 0, got {value}")
    if not strict and value < 0:
        errors.append(f"{section}.{name} must be >= 0, got {value}")


def _semantic_checks(cfg: dict, errors: list[str]) -> None:
    model = cfg.get("model", {})
    family = model.get("family")
    if family is not None and family not in FAMILY_KEYS:
        errors.append(f"model.family: unknown family {family!r} (known: {', '.join(FAMILY_KEYS)})")
    for key in sorted(set(model) - FAMILY_KEYS.get(family, set(model)) - {"family", "guard"}):
        errors.append(f"model.{key}: the {family} family does not read this key")
    _positive(errors, "model", "eps", model.get("eps"))
    _positive(errors, "model", "refractory", model.get("refractory"))
    _positive(errors, "model", "step", model.get("step"))
    _positive(errors, "model", "delta", model.get("delta"))
    for mu in model.get("mu", []) or []:
        _positive(errors, "model", "mu[*]", mu, strict=False)
    for ker in model.get("kernels", []) or []:
        if ker.get("type") == "exponential":
            _positive(errors, "model.kernels", "alpha", ker.get("alpha"), strict=False)
            _positive(errors, "model.kernels", "beta", ker.get("beta"))
    weights = model.get("weights") or {}
    p_empty = weights.get("empty")
    if p_empty is not None and not 0.0 <= p_empty <= 1.0:
        errors.append(f"model.weights.empty must lie in [0, 1], got {p_empty}")
    if family == "table":
        for node, rows in (model.get("entries") or {}).items():
            total = sum(row.get("weight", 0.0) for row in rows)
            if abs(total - 1.0) > 1e-9:
                errors.append(
                    f"model.entries[{node}]: weights sum to {total!r}, must be 1 (tol 1e-9)"
                )
            for row in rows:
                w = row.get("weight", 0.0)
                if not 0.0 <= w <= 1.0:
                    errors.append(f"model.entries[{node}]: weight {w} outside [0, 1]")
    if family == "lattice-4.2.6":
        g = model.get("gamma")
        p = model.get("p")
        if g is not None and g <= 3:
            errors.append(f"model.gamma must exceed 3 for the lattice preset, got {g}")
        if g is not None and p is not None and not (3 < p <= g):
            errors.append(f"model.p must lie in (3, gamma], got {p}")
    sim = cfg.get("simulation", {})
    _positive(errors, "simulation", "t_max", sim.get("t_max"))
    if sim.get("n_max") is not None and sim["n_max"] < 0:
        errors.append(f"simulation.n_max must be >= 0, got {sim['n_max']}")
    budget = sim.get("budget") or {}
    for key in ("max_generations", "max_points"):
        _positive(errors, "simulation.budget", key, budget.get(key))
    rng = cfg.get("rng", {})
    if rng.get("runs") is not None and rng["runs"] < 1:
        errors.append(f"rng.runs must be >= 1, got {rng['runs']}")


def _build_guard(section: Optional[dict]) -> Optional[SubspaceGuard]:
    if not section:
        return None
    kind = section.get("type", "none")
    if kind == "none":
        return NoGuard()
    if kind == "refractory":
        return RefractoryGap(float(section["delta"]))
    if kind == "activity":
        return ActivityCap(float(section["t"]), int(section["k"]))
    raise ConfigError([f"model.guard.type: unknown guard {kind!r}"])


def parse_config(cfg: dict) -> RunConfig:
    """Validate a raw mapping; raises ConfigError listing every violation."""
    errors: list[str] = []
    shape: list[tuple[tuple, str]] = []
    _shape_errors(cfg, SCHEMA, (), shape)
    for path, message in sorted(shape, key=lambda e: e[0]):
        errors.append(f"{'.'.join(map(str, path)) or '(root)'}: {message}")
    if not errors:
        _semantic_checks(cfg, errors)
    if errors:
        raise ConfigError(errors)

    sim = cfg.get("simulation", {})
    rng = cfg.get("rng", {})
    out = cfg.get("output", {})
    budget_cfg = sim.get("budget", {})
    # build the guard and the model now so config-level problems surface as ConfigError
    try:
        guard = _build_guard(cfg["model"].get("guard"))
        known = build_model(cfg["model"]).node_set()
    except KeyError as exc:
        raise ConfigError([f"model: missing key {exc}"]) from exc
    except ValueError as exc:
        raise ConfigError([f"model: {exc}"]) from exc
    sim_nodes = sim.get("nodes") or []
    repeated = sorted({j for j in sim_nodes if sim_nodes.count(j) > 1})
    if repeated:
        raise ConfigError([f"simulation.nodes: {repeated} are listed more than once"])
    stray = sorted(set(sim_nodes) - set(known)) if known is not None else []
    if stray:
        raise ConfigError([f"simulation.nodes: {stray} are not nodes of the model"])
    if known is not None and "node" in sim and sim["node"] not in known:
        raise ConfigError([f"simulation.node: {sim['node']} is not a node of the model"])
    return RunConfig(
        model_section=cfg["model"],
        t_max=float(sim.get("t_max", 10.0)),
        n_max=int(sim.get("n_max", 1_000_000)),
        node=int(sim.get("node", 0)),
        nodes=tuple(sim["nodes"]) if sim.get("nodes") else None,
        budget=BackwardBudget(
            max_generations=int(budget_cfg.get("max_generations", 10_000)),
            max_points=int(budget_cfg.get("max_points", 1_000_000)),
        ),
        guard=guard,
        seed=int(rng.get("seed", 0)),
        runs=int(rng.get("runs", 1)),
        points_path=str(out.get("points", "points.csv")),
        summary_path=out.get("summary"),
    )


def load_config(path: str, overrides: Optional[dict] = None) -> RunConfig:
    """Read and validate a JSON config file.

    ``overrides`` maps ``"section.key"`` to a value that replaces the file's
    before validation (None values are skipped), so a command-line flag meets
    the same checks as the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {path}"]) from None
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"]) from None
    except (OSError, UnicodeDecodeError) as exc:  # a directory, unreadable, not UTF-8
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError([f"cannot read config file {path}: {reason}"]) from None
    if isinstance(cfg, dict):
        for key, value in (overrides or {}).items():
            section, name = key.split(".")
            # a malformed section is left for the schema to report
            if value is not None and isinstance(cfg.setdefault(section, {}), dict):
                cfg[section][name] = value
    return parse_config(cfg)


# ---------------------------------------------------------------------------
# Model construction
# ---------------------------------------------------------------------------


def _build_kernel(spec: dict):
    if spec["type"] == "exponential":
        return ExponentialKernel(alpha=float(spec["alpha"]), beta=float(spec["beta"]))
    return StepKernel(edges=spec["edges"], values=spec["values"])


def _kernel_map(section: dict) -> dict:
    out = {}
    for spec in section.get("kernels", []) or []:
        out[(int(spec["to"]), int(spec["from"]))] = _build_kernel(spec)
    return out


def _atomic_weights(section: Optional[dict], nodes) -> Optional[dict]:
    if not section:
        return None
    p_empty = float(section.get("empty", 0.5))
    shares = {int(j): float(v) for j, v in section.get("shares", {}).items()}
    ratios = {int(j): float(v) for j, v in section.get("ratios", {}).items()}
    trunc = {int(j): v for j, v in section.get("trunc", {}).items()}
    if not shares:
        return None
    missing = sorted(set(shares) - set(ratios))
    if missing:
        raise ConfigError([f"model.weights.ratios: no ratio for node {j}" for j in missing])
    # a bin count: a positive integer (2.0 counts as one, as in the shape check) or null
    bad = [
        f"model.weights.trunc.{j}: {v!r} is not a positive integer or null"
        for j, v in sorted(trunc.items())
        if v is not None and not (type(v) in (int, float) and float(v).is_integer() and v >= 1)
    ]
    if bad:
        raise ConfigError(bad)
    trunc = {j: None if v is None else int(v) for j, v in trunc.items()}
    fam = AtomicWeights(p_empty, shares, ratios, trunc)
    return {int(i): fam for i in nodes}


def build_model(section: dict):
    family = section["family"]
    if family == "lattice-4.2.6":
        return lattice_preset(gamma=float(section["gamma"]), delta=float(section["delta"]))
    if family == "linear":
        nodes = section.get("nodes") or list(range(len(section["mu"])))
        mu = {int(j): float(v) for j, v in zip(nodes, section["mu"])}
        bounds = {int(j): float(v) for j, v in (section.get("bounds") or {}).items()}
        return LinearHawkesModel(
            mu=mu,
            kernels=_kernel_map(section),
            eps=float(section["eps"]),
            weights=_atomic_weights(section.get("weights"), nodes),
            declared_bounds=bounds or None,
        )
    if family == "age":
        nodes = section["nodes"]
        psi = section.get("psi", {})
        return AgeHawkesModel(
            psi=AffineRate(float(psi.get("base", 1.0)), float(psi.get("slope", 1.0))),
            kernels=_kernel_map(section),
            refractory=float(section["refractory"]),
            nodes=nodes,
            omega=section.get("omega"),
        )
    if family == "analytic":
        nodes = section["nodes"]
        psi = section.get("psi", {})
        return AnalyticHawkesModel(
            psi=PsiSeries(psi.get("kind", "exp"), psi.get("coeffs")),
            kernels=_kernel_map(section),
            eps=float(section["eps"]),
            nodes=nodes,
            order_ratio=float(section.get("order_ratio", 0.5)),
        )
    if family == "gl":
        nodes = section["nodes"]
        psi = section.get("psi", {})
        beta = {(int(e["to"]), int(e["from"])): float(e["value"]) for e in section.get("beta", [])}
        sat = {
            (int(e["to"]), int(e["from"])): float(e["value"])
            for e in section.get("saturation", [])
        }
        weights = None
        wsec = section.get("weights")
        if wsec:
            fam = GeometricLevels(float(wsec.get("empty", 0.5)), float(wsec.get("ratio", 0.5)))
            weights = {int(i): fam for i in nodes}
        return GLModel(
            psi=AffineRate(float(psi.get("base", 1.0)), float(psi.get("slope", 1.0))),
            beta=beta,
            saturation=sat,
            step=float(section["step"]),
            nodes=nodes,
            omega=section.get("omega"),
            weights=weights,
        )
    if family == "table":
        entries = {}
        for node, rows in section["entries"].items():
            built = []
            total = sum(float(r["weight"]) for r in rows)
            for r in rows:
                nb = Neighborhood([(int(j), float(a), float(b)) for j, a, b in r.get("pieces", [])])
                built.append(
                    TableEntry(
                        weight=float(r["weight"]) / total,
                        neighborhood=nb,
                        bound=float(r.get("bound", 0.0)),
                        value=float(r.get("value", 0.0)),
                    )
                )
            entries[int(node)] = built
        bounds = {int(j): float(v) for j, v in (section.get("bounds") or {}).items()}
        return TableModel(entries, bounds=bounds or None)
    raise ConfigError([f"model.family: unknown family {family!r}"])
