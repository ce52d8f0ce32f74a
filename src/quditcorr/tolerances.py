"""Global tolerance ladder.

Every numeric judgment in the package reads its bound from here, so there is
exactly one tunable surface.  Reports must quote the tolerance a value was
judged against; handlers pull the same constants.
"""

# Probability tables: entries of an ingested vector in [-PROB_NEG_CLAMP, 0) are zeroed (a
# tomogram zeroes all its negative values), anything lower is rejected; an ingested
# vector's sum must match 1 within PROB_SUM_ATOL before it is renormalized.
PROB_NEG_CLAMP = 1e-12
PROB_SUM_ATOL = 1e-12

# Density-matrix validation.
HERMITIAN_ATOL = 1e-10
TRACE_ATOL = 1e-10
PSD_ATOL = 1e-10  # bound on a state's negative eigenvalue mass, which nothing derived exceeds

# Inequality margins.
SUBADDITIVITY_ATOL = 1e-10       # classical subadditivity and the matrix-element inequalities
QUANTUM_MUTUAL_ATOL = 1e-9       # quantum mutual information floor
PRODUCT_MUTUAL_ATOL = 1e-9       # |I| for explicitly product inputs
ENTROPY_BOUND_ATOL = 1e-10       # 0 <= S <= ln N slack
CHSH_ATOL = 1e-9                 # CHSH maximum against closed-form targets
DEMO_CLOSED_FORM_ATOL = 1e-10    # demo mutual information and PPT witness against 2 ln 2, -1/2
DEMO_LINEAR_ENTROPY_ATOL = 1e-12  # demo linear entropy against 1/2

# Tomograms.
TOMOGRAM_SUM_ATOL = 1e-10        # tomogram-sweep's bound on a table's raw |sum - 1|
SPIN_J_ATOL = 1e-9               # how far 2j may sit from an integer

# Qubit and qutrit probability parametrizations.
QUTRIT_DIAG_SLOP = 1e-12         # float noise window for reconstructed qutrit diagonals
