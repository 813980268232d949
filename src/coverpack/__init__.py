"""Exact computations around t-connected ideals of graphs: cover ideals,
Alexander duality, symbolic powers, Konig/packing verdicts, and the integer
covering/packing duality (tau and nu) of a cover ideal's generator supports."""

from .graphs import Graph, complete, cycle, parse_graph6, path, star
from .ideals import MonomialIdeal, minimalize
from .duality import alexander_dual, simis_check, symbolic_power
from .tconn import cover_ideal, cycle_cover_gens, path_cover_gens, t_connected_ideal
from .packing import is_konig, is_packed
from .lpdual import nu, tau
from .classify import theorem_classification, verify_theorem

__version__ = "0.1.0"
