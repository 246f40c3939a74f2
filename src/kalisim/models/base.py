"""Model interface: the contract every decomposable intensity family satisfies,
and what the families share, once each: ``KalikowModel.require_bound`` (the
one reader of Gamma_i), ``past_drive`` and the node check
``require_known_nodes``. The families over single-node time bins share
``models.atomic``, which alone knows the bin convention, and the families
over nested windows share ``models.nested``, which alone knows theirs."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from ..core import Configuration, Neighborhood, NodeId, NoGuard, SubspaceGuard
from ..errors import NonSummableError
from ..kernels import Kernel
from ..sampling import RandomStream

_NO_GUARD = NoGuard()
EMPTY_NEIGHBORHOOD = Neighborhood.empty()  # shared by every expansion of the empty set
_EMPTY_PAST = Configuration.empty()  # the past every memoized empty-past value reads


@dataclass(frozen=True)
class OffspringRow:
    """Row i of the mean offspring matrix M_ij, split into listed and far mass.

    ``near`` maps child nodes to their entries M_ij; ``far`` is the exact total
    of every entry not listed in ``near``; ``err`` is a rigorous bound on the
    numerical error of ``far``. Finite families list the whole row, so their
    ``far`` and ``err`` are 0.
    """

    near: dict[NodeId, float]
    far: float = 0.0
    err: float = 0.0


class KalikowModel(ABC):
    """A model family exposing its intensity decomposition.

    The decomposition writes the generic intensity of node ``i`` as
    ``sum_v lambda_i(v) * phi_v`` over a countable family of finite past
    neighborhoods, with ``phi_v(x) = delta(i, v, x) / pmf(i, v)`` (0/0 = 0)
    cylindrical on ``v``. Models in the bounded regime additionally expose a
    global bound dominating the intensity; those are the models the perfect
    simulator accepts.
    """

    # -- structure -----------------------------------------------------------

    @abstractmethod
    def node_set(self) -> Optional[tuple[NodeId, ...]]:
        """Explicit nodes for finite models, None for lattice models."""

    def guard(self) -> SubspaceGuard:
        """Subspace the decomposition is valid on; every configuration by default."""
        return _NO_GUARD

    # -- decomposition -------------------------------------------------------

    @abstractmethod
    def intensity(self, i: NodeId, x: Configuration) -> float:
        """Exact generic intensity phi_i(x) from the model's closed form."""

    @abstractmethod
    def delta(self, i: NodeId, desc, x: Configuration) -> float:
        """Nonnegative summand delta_v(x). It is cylindrical: it reads the
        complete past ``x`` only through ``x.restrict(self.expand(i, desc))``,
        the points inside v, so ``delta(i, desc, x)`` equals
        ``delta(i, desc, x.restrict(v))`` exactly (``TestCylindricity``)."""

    @abstractmethod
    def pmf(self, i: NodeId, desc) -> float:
        """Weight lambda_i(v) of a descriptor."""

    @abstractmethod
    def expand(self, i: NodeId, desc) -> Neighborhood:
        """Concrete neighborhood a descriptor denotes for node ``i``."""

    @abstractmethod
    def sample_neighborhood(self, i: NodeId, rng: RandomStream, cls=None):
        """Draw a descriptor distributed per lambda_i, or per lambda_i( . | C)
        for the class C keyed ``cls`` of ``proposal_classes(i)``."""

    @abstractmethod
    def enumerate_descriptors(self, i: NodeId, x: Optional[Configuration] = None) -> Iterator:
        """Canonical enumeration of the family (restricted to descriptors that can
        be nonzero on ``x`` when a configuration is given)."""

    def component_value(self, i: NodeId, desc, x: Configuration) -> float:
        """phi_v(x) = delta / lambda with the 0/0 = 0 convention."""
        lam = self.pmf(i, desc)
        if lam == 0.0:
            return 0.0
        return self.delta(i, desc, x) / lam

    def empty_past_value(self, i: NodeId, desc) -> float:
        """phi_v on the empty past: ``component_value(i, desc,
        Configuration.empty())``, computed once per ``(i, desc)`` and then
        kept on the model, as its expansions and ladders are kept.

        The value depends on nothing but the pair, so the perfect sweep
        reads it for every point that keeps no accepted child.
        """
        try:
            memo = self._empty_values
        except AttributeError:
            memo = self._empty_values = {}
        value = memo.get((i, desc))
        if value is None:
            value = memo[i, desc] = self.component_value(i, desc, _EMPTY_PAST)
        return value

    def sample_component(self, i: NodeId, cls, rng: RandomStream, x: Configuration, t: float) -> float:
        """Draw v from lambda_i( . | C) for the class keyed ``cls`` and return
        phi_v at the past of ``x`` shifted to ``t``: one forward proposal.

        ``x`` holds absolute times. The default draws with
        ``sample_neighborhood``, reads the points inside v with
        ``Configuration.restrict_at`` and evaluates ``component_value``; a
        family may override it with a route that consumes the same draws and
        returns the same float.
        """
        desc = self.sample_neighborhood(i, rng, cls=cls)
        return self.component_value(i, desc, x.restrict_at(self.expand(i, desc), t))

    # -- bounded regime --------------------------------------------------------

    def global_bound(self, i: NodeId) -> Optional[float]:
        """Deterministic bound Gamma_i dominating phi_i and every phi_v, or
        None; callers read it through ``require_bound``."""
        return None

    def require_bound(self, i: NodeId) -> float:
        """Gamma_i, read from ``global_bound`` once and kept on the model, as
        ``empty_past_value`` keeps its values. The one place where a node
        without a bound, outside the bounded regime that perfect simulation
        and the branching analysis need, raises ``NonSummableError``."""
        try:
            return self._gammas[i]
        except KeyError:
            pass
        except AttributeError:
            self._gammas = {}
        g = self.global_bound(i)
        if g is None:
            raise NonSummableError(
                f"{type(self).__name__} exposes no global bound for node {i}; "
                "this operation needs the bounded decomposition regime"
            )
        self._gammas[i] = g
        return g

    # -- forward simulation -------------------------------------------------------

    @abstractmethod
    def local_bound(self, i: NodeId, x: Configuration, t: float = 0.0, cls=None) -> float:
        """Finite bound dominating every component value of node ``i`` at the
        configuration shifted to ``t``, valid until the next accepted point.

        ``x`` holds absolute times; its points at or before ``t`` are the past
        (a point exactly at ``t`` counts, at age zero). The bound must hold at
        every later shift of that same past, since it is renewed only when a
        point is accepted.

        ``cls`` keys a class of ``proposal_classes(i)`` and bounds its
        components only; None bounds the whole family. A class's bound may
        read only the points of its ``sources`` (of every node when they are
        None), since it is kept while other nodes accept.
        """

    def proposal_classes(self, i: NodeId) -> tuple:
        """Node ``i``'s family split into classes C for forward thinning, as
        ``(key, weight, sources)`` triples: ``weight`` is lambda_i(C), the
        class draws from lambda_i( . | C) with ``sample_neighborhood(i, rng,
        cls=key)`` and is bounded by ``local_bound(..., cls=key)``. Every
        descriptor outside the classes must have delta_v = 0 at every past.

        ``sources`` are the nodes whose accepted points renew the class's
        bound: None renews it after every acceptance, and an empty set never.
        The default is the whole family, renewed after every acceptance,
        ``((None, 1.0, None),)``.
        """
        return ((None, 1.0, None),)

    # -- branching analysis ----------------------------------------------------------

    def offspring_row(self, i: NodeId, tol: float = 1e-8) -> OffspringRow:
        """Mean offspring counts per child type: M_ij = sum_v lambda_i(v) Gamma^j mu(p_j(v)).

        This is the one source of offspring means: the branching matrix M,
        the subcriticality constant gamma (the supremum of the row totals) and
        the expected clan size E(W) are all read from it, so a family
        implements it in closed form and nothing else.

        ``near`` lists the entries (every node a finite family touches; the
        entries of at least ``tol`` for infinite families), ``far`` is the
        exact mass of the unlisted entries and ``err`` < ``tol`` bounds the
        numerical error of ``far``.
        """
        raise NotImplementedError

    def invariant_offspring_mean(self) -> Optional[float]:
        """The row total every node shares, for a translation-invariant family,
        and None otherwise. A value certifies the scalar branching reduction:
        gamma equals it and E(W) = 1/(1 - gamma) at every node, an upper bound
        on the mean clan (``kalisim.analysis`` says why)."""
        return None


def require_known_nodes(pairs: Iterable[tuple[NodeId, NodeId]], nodes: Iterable[NodeId], what: str) -> None:
    """Raise ValueError on the first (target, source) pair naming a node outside ``nodes``."""
    known = set(nodes)
    for i, j in pairs:
        if i not in known or j not in known:
            raise ValueError(f"{what} ({i},{j}) references an unknown node")


def past_drive(incoming: Iterable[tuple[NodeId, Kernel]], x: Configuration, total: float = 0.0) -> float:
    """``total`` plus the kernel values of every point of ``x`` before time 0,
    added source by source in the order of ``incoming``'s (node, kernel)
    pairs and in time order within a source."""
    for j, ker in incoming:
        for s in x.points(j):
            if s < 0.0:
                total += ker(-s)
    return total
