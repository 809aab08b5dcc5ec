"""Branched-double-cover invariants of alternating links.

Computes the white checkerboard graph and Goeritz form of a PD code,
spin-c classes and correction terms of the double branched cover,
spin-filling obstructions, a graph-level handle-slide simulator, and
plumbing-tree normal forms.

The package imports none of its modules, so a library import such as
``import spinfill.graphs`` loads only what that module needs, and not the
command line front end (``spinfill.cli``) or argparse.
"""

__version__ = "0.1.0"
