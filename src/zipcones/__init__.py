"""Exact weight cones, mod-p sections and graded dimensions for the
symplectic zip setting.

Each public function and class is imported from the module that defines
it, for example ``from zipcones.oracle import h0_dimension``.  Importing
the package itself loads no module, so a job compiles only the layers it
uses.
"""

__version__ = "0.1.0"
