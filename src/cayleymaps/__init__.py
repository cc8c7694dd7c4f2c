"""Prime-valent Cayley maps on abelian, dihedral, and dicyclic groups.

Construct maps from a group and an ordered generating list, decide
regularity and balance, trace faces, and run exhaustive desk-scale censuses
with independent cross-checks of the counting formula.
"""

from .groups import (
    CyclicGroup,
    DicyclicGroup,
    DihedralGroup,
    ElemAbelian2Group,
    FiniteGroup,
)

__version__ = "0.1.0"

__all__ = [
    "CyclicGroup",
    "DicyclicGroup",
    "DihedralGroup",
    "ElemAbelian2Group",
    "FiniteGroup",
    "__version__",
]
