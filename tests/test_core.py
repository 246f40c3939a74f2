import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kalisim
from kalisim import (
    ActivityCap,
    Configuration,
    GuardViolation,
    Neighborhood,
    NoGuard,
    RefractoryGap,
    evaluate_decomposition,
    shift_to_origin,
)
from kalisim.models import LinearHawkesModel, lattice_preset


class TestNeighborhood:
    def test_empty(self):
        v = Neighborhood.empty()
        assert v.is_empty()
        assert list(v.pieces()) == []

    def test_rejects_future_pieces(self):
        with pytest.raises(ValueError):
            Neighborhood([(0, -1.0, 0.5)])
        with pytest.raises(ValueError):
            Neighborhood([(0, -1.0, -1.0)])

    def test_normalizes_same_node_pieces(self):
        v = Neighborhood([(0, -1.0, -0.5), (0, -0.7, -0.2), (1, -1.0, -0.9)])
        assert list(v.by_node()) == [(0, ((-1.0, -0.2),)), (1, ((-1.0, -0.9),))]

    def test_equality_ignores_piece_order(self):
        a = Neighborhood([(0, -1.0, -0.5), (1, -2.0, -1.0)])
        b = Neighborhood([(1, -2.0, -1.0), (0, -1.0, -0.5)])
        assert a == b and hash(a) == hash(b)


class TestConfiguration:
    def test_sorts_and_counts(self):
        x = Configuration({0: [-1.0, -3.0], 1: [-2.0]})
        assert x.points(0) == (-3.0, -1.0)
        assert x.n_points() == 3
        assert x.count_in(0, -3.0, -1.0) == 1  # half-open: -1.0 excluded

    def test_rejects_same_node_duplicates(self):
        with pytest.raises(ValueError, match="increasing"):
            Configuration({0: [-1.0, -1.0]})

    def test_rejects_cross_node_collisions(self):
        with pytest.raises(ValueError, match="collision"):
            Configuration({0: [-1.0], 1: [-1.0]})

    def test_restrict(self):
        x = Configuration({0: [-3.0, -0.4], 1: [-0.2]})
        v = Neighborhood([(0, -0.5, -1e-12), (1, -1.0, -0.5)])
        r = x.restrict(v)
        assert r.points(0) == (-0.4,)
        assert r.points(1) == ()

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.floats(-20.0, -1e-3), st.floats(1e-3, 5.0)),
            max_size=10,
        ),
        st.lists(st.tuples(st.integers(0, 4), st.floats(-25.0, 0.0)), max_size=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_restrict_matches_the_per_piece_reads(self, raw, drawn):
        pieces = [(j, a, min(a + w, 0.0)) for j, a, w in raw]
        v = Neighborhood(pieces)
        # points on every piece's edges, where a walk that skips ahead would err
        pts: dict[int, set[float]] = {}
        for j, a, b in pieces:
            pts.setdefault(j, set()).update((a, b))
        for j, t in drawn:
            pts.setdefault(j, set()).add(t)
        x = Configuration._unsafe({j: tuple(sorted(ts)) for j, ts in pts.items()})
        reference = {}
        for j, ivs in v.by_node():
            kept = tuple(t for a, b in ivs for t in x.points_in(j, a, b))
            if kept:
                reference[j] = kept
        assert list(x.restrict(v).items()) == list(reference.items())


class TestShiftToOrigin:
    def test_empty(self):
        assert shift_to_origin(Configuration.empty(), 3.0).is_empty()

    def test_shift_and_strict_cutoff(self):
        x = Configuration({1: [2.0, 5.0]})
        s = shift_to_origin(x, 5.0)
        assert s.points(1) == (-3.0,)

    def test_identity_shift(self):
        x = Configuration({2: [-1.0]})
        assert shift_to_origin(x, 0.0).points(2) == (-1.0,)


class TestRestrictAt:
    def test_matches_the_rooted_restriction(self):
        rng = random.Random(5)
        v = Neighborhood([(0, -1.5, -1.0), (0, -0.5, 0.0), (1, -2.0, -0.1)])
        for _ in range(200):
            t = rng.uniform(1.0, 9.0)
            # points on the pieces' edges as seen from t, where absolute and
            # shifted comparisons can round apart
            pts = {0: sorted({rng.uniform(0, 10) for _ in range(5)} | {t - 1.5, t - 1.0, t - 0.5}),
                   1: sorted({rng.uniform(0, 10) for _ in range(5)} | {t - 2.0, t - 0.1})}
            x = Configuration._unsafe({j: tuple(ts) for j, ts in pts.items()})
            got = x.restrict_at(v, t)
            want = shift_to_origin(x, t).restrict(v)
            assert {j: got.points(j) for j in (0, 1)} == {j: want.points(j) for j in (0, 1)}

    def test_drops_points_outside(self):
        x = Configuration({0: [1.0, 2.0, 3.0], 2: [2.5]})
        got = x.restrict_at(Neighborhood([(0, -1.5, -0.5)]), 3.0)
        assert got.points(0) == (-1.0,)
        assert got.nodes() == (0,)


class TestGuards:
    def test_refractory(self):
        g = RefractoryGap(0.5)
        assert g.check(Configuration({0: [-2.0, -1.0]}))
        assert not g.check(Configuration({0: [-1.5, -1.0]}))  # gap == delta fails
        assert g.check(Configuration({0: [-1.51, -1.0]}))
        with pytest.raises(GuardViolation, match="refractory"):
            g.require(Configuration({0: [-1.2, -1.0]}))

    def test_activity_cap(self):
        g = ActivityCap(10.0, 2)
        assert g.check(Configuration({0: [1.0, 2.0]}))
        assert not g.check(Configuration({0: [1.0, 2.0, 3.0]}))
        # points before 0 do not count against the cap
        assert g.check(Configuration({0: [-1.0, 1.0, 2.0]}))

    def test_no_guard(self):
        assert NoGuard().check(Configuration({0: [-1.0]}))


class TestEvaluateDecomposition:
    def make_linear(self, mu=0.5):
        return LinearHawkesModel(mu={0: mu}, kernels={}, eps=0.5)

    def test_zero_terms(self):
        m = self.make_linear()
        assert evaluate_decomposition(m, 0, Configuration.empty(), 0) == 0.0

    def test_empty_past_recovers_mu(self):
        m = self.make_linear(0.5)
        for n in (1, 2, 5):
            got = evaluate_decomposition(m, 0, Configuration.empty(), n)
            assert got == pytest.approx(0.5)

    def test_monotone_in_truncation(self):
        from kalisim import AtomicWeights, ExponentialKernel

        m = LinearHawkesModel(
            mu={0: 0.3},
            kernels={(0, 0): ExponentialKernel(1.0, 1.0)},
            eps=0.5,
            weights={0: AtomicWeights(0.5, {0: 1.0}, {0: 0.7})},
        )
        x = Configuration({0: [-1.7, -0.8, -0.1]})
        vals = [evaluate_decomposition(m, 0, x, n) for n in range(0, 25)]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(m.intensity(0, x), rel=1e-6)

    def test_lattice_empty_past(self):
        m = lattice_preset(4.0, 0.5)
        x = Configuration.empty()
        for n in (1, 3, 10):
            part = evaluate_decomposition(m, 0, x, n)
            assert abs(part - 1.0) <= m.ladder(0).tail(n) + 1e-12
        assert evaluate_decomposition(m, 0, x, 1) == pytest.approx(1.0)

    def test_guard_violation_identified(self):
        m = lattice_preset(4.0, 0.5)
        bad = Configuration({0: [-0.6, -0.3]})  # gap 0.3 <= delta 0.5
        with pytest.raises(GuardViolation, match="refractory"):
            evaluate_decomposition(m, 0, bad, 3)


def test_no_module_imports_a_name_it_never_uses():
    # a deleted code path can orphan its imports; the package's __init__
    # modules import to re-export, so they are left out
    package = Path(kalisim.__file__).parent
    unused = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(package)}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_only_the_presets_build_the_power_ladder():
    # the paper's power ladder C_gamma k^{-p} is one lattice decomposition,
    # PowerLadderLattice: no other module computes its constant or its rungs
    package = Path(kalisim.__file__).parent
    calls = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            power = any(kw.arg == "power" for kw in node.keywords) or len(node.args) >= 3
            if name == "lattice_c_gamma" or (name == "GammaLadder" and power):
                calls.append(f"{path.relative_to(package)}:{node.lineno} {name}")
    assert calls
    assert [call for call in calls if not call.startswith("models/presets.py:")] == []


def _names_eps(node) -> bool:
    return getattr(node, "id", getattr(node, "attr", None)) == "eps"


def test_only_the_atomic_family_knows_the_bin_convention():
    # the atoms w_{j,n} = {j} x [-n*eps, -(n-1)*eps) are one convention, kept
    # in models/atomic.py: no other module calls its bin helpers or writes a
    # bin's edge, a product of eps with an expression of the bin index n
    package = Path(kalisim.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("bin_drive", "future_bin_bounds", "_bin_of"):
                    found.append(f"{path.relative_to(package)}:{node.lineno} {name}")
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                sides = (node.left, node.right)
                index = any(getattr(sub, "id", getattr(sub, "attr", None)) == "n" for s in sides for sub in ast.walk(s))
                if index and any(map(_names_eps, sides)):
                    found.append(f"{path.relative_to(package)}:{node.lineno} bin edge")
    assert found
    assert [f for f in found if not f.startswith("models/atomic.py:")] == []


def _named(node, names) -> bool:
    return str(getattr(node, "id", getattr(node, "attr", None))).lstrip("_") in names


def test_only_the_nested_family_knows_the_window_convention():
    # the windows v_k = omega_k x [-D_k*unit, 0) are one convention, kept in
    # models/nested.py: no other module multiplies a depth(...) call or a
    # level index k by a unit, or builds a Neighborhood over omega's nodes
    package = Path(kalisim.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            subs = list(ast.walk(node))
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                level = any(_named(sub, ("k",)) or isinstance(sub, ast.Call) and _named(sub.func, ("depth",)) for sub in subs)
                if level and any(_named(sub, ("unit", "refractory", "step", "delta")) for sub in subs):
                    found.append(f"{path.relative_to(package)}:{node.lineno} level depth")
            elif isinstance(node, ast.Call) and _named(node.func, ("Neighborhood",)):
                if any(isinstance(sub, ast.Call) and _named(sub.func, ("omega",)) for sub in subs):
                    found.append(f"{path.relative_to(package)}:{node.lineno} window")
    assert found
    assert [f for f in found if not f.startswith("models/nested.py:")] == []
    # the families over the windows add to them only what is their own
    owned = {"node_set", "omega", "depth", "edge", "expand", "enumerate_descriptors"}
    assert owned & set(vars(kalisim.AgeHawkesModel)) == set()
    assert owned & set(vars(kalisim.GLModel)) == {"expand", "enumerate_descriptors"}
    assert owned & set(vars(kalisim.LatticeAgeModel)) == {"node_set", "omega", "depth"}


def test_every_definition_has_a_caller():
    # code with no caller is deleted: every function, class and method under
    # src/kalisim is named outside its own definition, in the package or in
    # its tests. A string counts, as monkeypatch and getattr read names from
    # strings; the language calls the dunder methods itself.
    package = Path(kalisim.__file__).parent
    definitions, references = [], {}
    for path in sorted(package.rglob("*.py")) + sorted(Path(__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and package in path.parents:
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    definitions.append((node.name, path, node.lineno, node.end_lineno))
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            references.setdefault(name, []).append((path, node.lineno))
    assert len(definitions) > 100
    unused = [
        f"{path.relative_to(package)}:{lo} {name}"
        for name, path, lo, hi in definitions
        if all(where == path and lo <= line <= hi for where, line in references.get(name, ()))
    ]
    assert unused == []
