"""Built-in model families and their decompositions."""

from .age import AgeHawkesModel, GammaLadder
from .analytic import AnalyticHawkesModel, PsiSeries
from .base import KalikowModel, OffspringRow
from .gl import GLModel
from .linear import LinearHawkesModel
from .presets import AtomLattice, lattice_c_gamma, lattice_gamma_bar, lattice_preset
from .table import TableEntry, TableModel

__all__ = [
    "AgeHawkesModel",
    "AnalyticHawkesModel",
    "AtomLattice",
    "GammaLadder",
    "GLModel",
    "KalikowModel",
    "LinearHawkesModel",
    "OffspringRow",
    "PsiSeries",
    "TableEntry",
    "TableModel",
    "lattice_c_gamma",
    "lattice_gamma_bar",
    "lattice_preset",
]
