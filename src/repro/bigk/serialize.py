"""Graph-file names of the former two-word path (aliases).

:func:`repro.graph.serialize.save_graph` writes a two-word graph as a
``PHB2`` file and :func:`repro.graph.serialize.load_graph` reads either
magic.
"""

from ..graph.serialize import load_graph as load_big_graph
from ..graph.serialize import save_graph as save_big_graph

__all__ = ["load_big_graph", "save_big_graph"]
