"""Alias resolution substrate (MIDAR-like).

Steps 4 and 5 of the paper map IP interfaces to routers using CAIDA's MIDAR
(combined with iffinder), choosing the high-confidence dataset that favours
accuracy over completeness.  :mod:`repro.alias.midar` simulates that tool:
each interface resolves to its ground-truth router, with a configurable miss
rate (an unresolved interface has no router and stays alone) and essentially
no false aliases.
"""

from repro.alias.midar import AliasResolver

__all__ = ["AliasResolver"]
