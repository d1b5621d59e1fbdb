"""Matrix weights, reducing matrices, and the dominating scalar operator.

Run:  python demos/05_matrix_weights.py
"""

import numpy as np

from weaklab import (
    DyadicGrid,
    MatrixWeight,
    Mesh,
    MeshFunction,
    ainfty_scalar_characteristic,
    build_sparse_family,
    christ_goldberg_maximal,
    dominating_scalar_sparse,
    dual_reducing_matrix,
    hl_maximal,
    matrix_ap_characteristic,
    op_norm,
    random_matrix_weight,
    reducing_matrix,
    scalar_restriction_characteristic,
    unit_directions,
)
from weaklab.weaktype import quotient_from_output

mesh = Mesh(1.0, 6)
rng = np.random.default_rng(1)
W = random_matrix_weight(mesh, 2, rng)
p = 2.0
cube = DyadicGrid().cube(0, 0)  # [0, 1)

print("=" * 72)
print("1. Reducing matrices: exact at p = 2, certified ellipsoid fits otherwise")
print("=" * 72)
red2 = reducing_matrix(W, cube, 2.0)
red3 = reducing_matrix(W, cube, 3.0)
print(f"   p = 2: certified factors ({red2.lower_factor:.12f}, {red2.upper_factor:.12f})")
print(f"   p = 3: certified factors ({red3.lower_factor:.6f}, {red3.upper_factor:.6f})"
      f"   ratio {red3.upper_factor / red3.lower_factor:.6f} (<= sqrt(2))")

print()
print("=" * 72)
print("2. The reducing product tracks the characteristic")
print("=" * 72)
char = matrix_ap_characteristic(W, p)
dual = dual_reducing_matrix(W, cube, p)
prod = float(op_norm(red2.matrix @ dual.matrix))
print(f"   [W]_A2 = {char.value:.4f} on {char.witness_label}")
print(f"   ||W_Q Wbar_Q|| = {prod:.4f}  vs  [W]_A2^(1/2) = {char.value**0.5:.4f}"
      f"   (ratio {prod / char.value**0.5:.4f})")

print()
print("=" * 72)
print("3. Direction weights never beat the matrix characteristic")
print("=" * 72)
worst = max(
    scalar_restriction_characteristic(W, p, v).value for v in unit_directions(2, 32)
)
ainf_sc, vstar = ainfty_scalar_characteristic(W, p, n_dirs=32)
print(f"   max over 32 directions of [w_v]_A2 = {worst:.4f} <= [W]_A2 = {char.value:.4f}")
print(f"   scalar A-infinity characteristic: {ainf_sc:.4f} at direction "
      f"({vstar[0]:+.3f}, {vstar[1]:+.3f})")

print()
print("=" * 72)
print("4. Christ-Goldberg maximal operator and its weak-type constant")
print("=" * 72)
f = MeshFunction(mesh, rng.uniform(-1, 1, (mesh.n_cells, 2)))
MW = christ_goldberg_maximal(W, p, f)
q = quotient_from_output(MW.magnitude(), f.lp_norm(p), p)
print(f"   weak-type quotient: {q.quotient:.4f} at lambda = {q.best_lambda:.4f}")
print(f"   bound product [W]_A2 [W]_Ainf^sc^2 = {char.value * ainf_sc**2:.4f}"
      f"   empirical constant = {q.quotient / (char.value * ainf_sc**2):.4f}")

print()
print("=" * 72)
print("5. The dominating scalar sparse operator")
print("=" * 72)
fs = MeshFunction(mesh, np.abs(rng.uniform(0, 1, mesh.n_cells)))
fam = build_sparse_family(fs)
AS = dominating_scalar_sparse(W, p, fam, fs)
print(f"   family of {len(fam.cubes)} cubes; output sup = {AS.lp_norm(np.inf):.4f}")
I2 = MatrixWeight(mesh, np.tile(np.eye(2), (mesh.n_cells, 1, 1)))
AS_plain = dominating_scalar_sparse(I2, p, fam, fs)
manual = np.zeros(mesh.n_cells)
for q_cube in fam.cubes:
    avg_p = (fs.power(p).integral(q_cube.left, q_cube.right) / q_cube.width) ** (1 / p)
    manual[I2.cells_of(q_cube)] += avg_p
print(f"   with W = Id the coefficients collapse to 1: "
      f"max |A_S - sum <f>_p,Q chi_Q| = {np.max(np.abs(AS_plain.values - manual)):.2e}")
MWid = christ_goldberg_maximal(I2, p, f)
MS = hl_maximal(f.magnitude())
print(f"   M_W with W = Id equals the scalar maximal bit for bit: "
      f"{np.array_equal(MWid.values, MS.values)}")
