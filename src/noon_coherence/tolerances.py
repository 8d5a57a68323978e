"""Numerical tolerances shared across the package.

Stated once so every module and every test agrees on what "equal" means.
"""

# Normalization of state vectors and density-matrix traces at construction.
NORM_TOL = 1e-12

# Equality of derived quantities (moments, probabilities, identities).
EQ_TOL = 1e-10

# Smallest coherence-element magnitude treated as nonzero.
ELEMENT_TOL = 1e-12

# Occupation probability above which a mode-number pair counts as supported
# when taking suprema over the state's support.  Configurable per call.
SUPPORT_EPS = 1e-9
