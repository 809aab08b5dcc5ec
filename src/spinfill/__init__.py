"""Branched-double-cover invariants of alternating links.

Computes the white checkerboard graph and Goeritz form of a PD code,
spin-c classes and correction terms of the double branched cover,
spin-filling obstructions, a graph-level handle-slide simulator, and
plumbing-tree normal forms.

The package imports none of its modules, so a library import such as
``import spinfill.graphs`` loads only what that module needs, and not the
command line front end (``spinfill.cli``) or argparse.  Each command
runs only the modules it needs: ``spinc`` and ``cli`` bind ``diagram``
and ``chainmail`` through _import_lazily, so those two are compiled and
run where a PD code is read or a link is slid, and not by ``analyze``
on a graph.
"""

__version__ = "0.1.0"


def _import_lazily(name):
    """The submodule name, such as "spinfill.diagram", put in sys.modules
    and on the package at once but run at its first attribute access
    (importlib.util.LazyLoader).  A module already imported is returned
    as it is."""
    import importlib.util
    import sys

    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        globals()[name.rpartition(".")[2]] = module
    return module
