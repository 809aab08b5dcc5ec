"""Exception types shared across the package.

The command line sorts refusals by class: MalformedInput exits 2,
CertificationFailure exits 4 and every other SpinfillError exits 3.
"""


class SpinfillError(Exception):
    """Base class for every error raised by this package; on its own,
    invalid topology or a failed precondition (exit 3)."""


class MalformedInput(SpinfillError):
    """Input document is syntactically or structurally invalid (exit 2)."""


class CertificationFailure(SpinfillError):
    """An internal optimality or consistency certificate failed; a bug
    (exit 4)."""


class Singular(SpinfillError):
    """A form is not negative definite (OrbitKernel) or a matrix is not
    of full rank (hnf_basis); spinc.obstruction_report re-raises it as a
    CertificationFailure."""


class NotATree(SpinfillError):
    """Plumbing edges do not make a tree, raised by PlumbingTree;
    spinc.obstruction_report reads it as "the reduced graph is not a
    tree"."""
