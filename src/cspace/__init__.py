"""Combinatorial engine for controlled spaces.

A controlled space is a graph together with a set of routes (edge paths
with marked dwell positions) closed under endpoint constants,
concatenation, and dwell insertion.  The package decides membership for
finitely presented spaces, computes reflections onto flexible,
preflexible, and border-flexible subcategories, builds truncated
fundamental categories by cell-move rewriting, and lifts routes along
coverings with an exact hom-set bijection audit.
"""
from .core import *
from .core import __all__ as _core
from .covering import *
from .covering import __all__ as _covering
from .documents import *
from .documents import __all__ as _documents
from .pi1 import *
from .pi1 import __all__ as _pi1
from .spaces import *
from .spaces import __all__ as _spaces

__version__ = "0.1.0"

__all__ = [*_core, *_covering, *_documents, *_pi1, *_spaces]
