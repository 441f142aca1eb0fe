"""Every tolerance a check or a gate judges by, and the separability boundary
the positivity tolerances derive from.

Each constant has one comment line on where its value comes from: eps times a
stated bound, or the worst deviation seen against it and the headroom that
leaves.  The deviations were measured on `verify --grid 0 1/3 20001`,
`ppt --sweep 0 1 20001`, spherical `decompose` at q = 1/3 with up to
1000 x 1000 nodes, `wootters` at q = 0 and 1/3, and `matrix` at q = 1/3 and
0.7.  eps is 2^-52, so 1e-12 is 4500 eps.

The caps on sizes (the MAX_* constants) and the sampler's float32 screen
(hiddenvar._SCREEN) are not check tolerances and stay with their code.
"""

import math

# The separability boundary.  An edge at 1/3 with a tolerance of 0 would call
# 1/3 + 1 ulp separable, so the edge sits a few doubles past 1/3 and the
# positivity tolerances are derived from it.
# The paper's threshold, where the local Bloch norm |a| = |b| = sqrt(3q) reaches 1.
SEPARABLE_Q_MAX = 1.0 / 3.0
# The one accepted edge, 64 doubles above 1/3: q <= SEPARABLE_Q_EDGE is separable.
SEPARABLE_Q_EDGE = SEPARABLE_Q_MAX + 64 * math.ulp(SEPARABLE_Q_MAX)
# 12 eps, the low PT eigenvalue |1 - 3q|/4 at the edge.  It makes eigvalsh's
# verdict agree with q <= SEPARABLE_Q_EDGE on every double within 2^-40 of
# 1/3.  On those doubles the real symmetric solver, which takes the float64
# Werner stacks, returns the low eigenvalue bit for bit as the complex one
# does, within eps/4 of the exact (1 - 3q)/4: -PPT_TOL + eps/4 at the edge,
# -PPT_TOL - eps/16 one double past it.
PPT_TOL = abs(1.0 - 3.0 * SEPARABLE_Q_EDGE) / 4.0
# 1 + 6 ulps: a product state with |a|, |b| <= BLOCH_NORM_MAX has a PT
# eigenvalue no lower than -PPT_TOL/4, which leaves eigvalsh three quarters
# of PPT_TOL (9 eps) of rounding on such unit-scale spectra.  Over 10^4
# random pairs at the bound, the lowest computed PT eigenvalue was -0.41
# PPT_TOL, by the complex solver that product_state's matrices take and by
# the real one on real products alike: 2.4x headroom.  Their own smallest
# eigenvalue was as low.  validate_density_matrix passes a state whose
# Gershgorin discs lie at or above 0 without a spectrum, and judges the rest,
# such products among them, by eigvalsh at -PPT_TOL, so every such product
# passes.
BLOCH_NORM_MAX = 1.0 + PPT_TOL / 2.0

# 4500 eps: axes written to 13 significant digits kept |norm - 1| <= 8.3e-14 (2e5 tried).
UNIT_AXIS_TOL = 1e-12
# The gate's trace bound: 4500 eps, so entries rounded to 13 significant digits still pass.
UNIT_TRACE_TOL = 1e-12
# 4500 eps of max|a|, so the one Hermitian rule means the same at any scale.  PT moves
# each entry pair onto another such pair, so the rule passes PT(rho) whenever it passes rho.
HERMITIAN_TOL = 1e-12

# matrix's trace_one: 4.5 eps; werner(q)'s diagonal summed to 1 within 1 eps over 1.2e6 q.
TRACE_TOL = 1e-15
# PT eigenvalues against the closed form: worst 5.0e-16 on ppt --sweep 0 1 20001, 2000x.
EIGENVALUE_TOL = 1e-12
# Both reconstructions: worst 1.83e-14, spherical on 1000 x 1000 nodes, 55x.
RECONSTRUCTION_TOL = 1e-12
# Wootters' norm_squared_sum: worst 4.44e-16 (2 eps) on verify's 20001-q grid, 2250x.
NORM_SUM_TOL = 1e-12
# Wootters' phase residual: 2.11e-14 = 6 (edge - 1/3) at the edge, 4.7x; 8.88e-16 on verify, 113x.
PHASE_TOL = 1e-13
# cross_decomposition_agreement, spherical against Wootters: worst 1.75e-15 in the window, 5700x.
CROSS_DECOMPOSITION_TOL = 1e-11
# weight_sum_deviation: 45 eps; worst 2.22e-16 (1 eps), 45x.
WEIGHT_SUM_TOL = 1e-14
# The tightest: second_moment_deviation, worst 7.30e-14 on 1000 x 1000 nodes, 1.37x.
MOMENT_TOL = 1e-13
# |det| / <v|v>, Wootters' vectors: worst 2.61e-15 at the edge, 383x; 1.39e-16 on verify's grid.
SCHMIDT_TOL = 1e-12
# hvsim's pass band in model standard errors sqrt((1 - mu^2)/n): a correct run leaves it with
# probability at most 1.67e-6 (exact binomial, n <= 3000, |mu| <= 1/3; n = 23), 5.7e-7 as n grows.
SIGMA_BAND = 5.0
