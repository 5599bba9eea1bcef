"""Walk through the graph operators and both polynomial filters on tiny graphs.

Run with:  python demos/01_filters_on_tiny_graphs.py
"""

import numpy as np

from asgc import (
    Graph,
    asgc_filter,
    degrees,
    laplacian_quadratic_form,
    normalized_adjacency,
    sgc_filter,
)

np.set_printoptions(precision=3, suppress=True)

# A single edge is the smallest interesting graph: one perfectly smooth
# feature ([1, 1]) and one perfectly rough feature ([1, -1]).
edge = Graph.from_edges(2, [[0, 1]])
print("single edge, degrees:", degrees(edge))
print("S  =\n", normalized_adjacency(edge, add_self_loops=False).matrix().toarray())
print("S~ =\n", normalized_adjacency(edge, add_self_loops=True).matrix().toarray())

smooth = np.array([1.0, 1.0])
rough = np.array([1.0, -1.0])
print("\nquadratic form x'(I-S)x, smooth feature:", laplacian_quadratic_form(edge, smooth))
print("quadratic form x'(I-S)x, rough feature: ", laplacian_quadratic_form(edge, rough))

# The smoothing filter averages across edges (plus the self-loop), so it
# preserves the smooth feature and annihilates the rough one.
print("\nsmoothing filter, K=1:")
print("  smooth ->", sgc_filter(edge, smooth, 1))
print("  rough  ->", sgc_filter(edge, rough, 1))

# The adaptive filter instead fits the feature from its propagated versions.
# For the rough feature, one propagation flips the sign, so the best
# single-term polynomial is coefficient -1: the feature is recovered exactly.
for name, x in (("smooth", smooth), ("rough", rough)):
    res = asgc_filter(edge, x, k_hops=1)
    print(f"adaptive filter on {name}: coefficient {res.coefficients[0]}, "
          f"output {res.filtered}, residual {res.residual_norms[0]:.2e}")

# On a longer path, more hops let the adaptive filter use a richer polynomial.
path = Graph.from_edges(6, [[i, i + 1] for i in range(5)])
x = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])  # alternating = rough
print("\n6-node path, alternating feature:")
for k in (1, 2, 3, 4):
    res = asgc_filter(path, x, k_hops=k)
    print(f"  K={k}: residual {res.residual_norms[0]:.4f} "
          f"coefficients {np.round(res.coefficients[0], 3)}")
print("residuals shrink as K grows: the fitted polynomial has more terms to use.")
