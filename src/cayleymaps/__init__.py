"""Prime-valent Cayley maps on abelian, dihedral, and dicyclic groups.

Construct maps from a group and an ordered generating list, decide
regularity and balance, trace faces, and run exhaustive desk-scale censuses
with independent cross-checks of the counting formula.

The group classes are loaded on first use, so importing the package (and
with it `cayleymaps.cli`) loads no numpy.
"""

__version__ = "0.1.0"

__all__ = [
    "CyclicGroup",
    "DicyclicGroup",
    "DihedralGroup",
    "ElemAbelian2Group",
    "FiniteGroup",
    "__version__",
]


def __getattr__(name: str):
    if name in __all__:
        from . import groups

        return getattr(groups, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
