"""Exact graded symplectic calculus on differential forms over coordinate
charts: even and odd graded symplectic structures, graded Hamiltonian vector
fields, and the associated graded Poisson brackets, all over exact rational
arithmetic."""

__version__ = "0.1.0"

# The verification suites of ``check --suite``, in the order the usage text
# lists them. Kept here, not in ``suites``, so that the CLI builds its
# parser without compiling the suites: only ``check`` imports them.
SUITES = ("axioms", "theorems", "recursion", "kahler", "paracomplex", "all")
