"""Maximal amplification: exact value, bounds, and the numeric oracle.

Although reactivity is unbounded, the total factor a perturbation can
gain is not: the best run enters the reactive arc at its boundary
orthovector and exits at the other side.  One closed form gives the
gain, the time it takes and the entry angle for real, repeated and
complex spectra alike; an independent RK4 traversal agrees to many
digits, and both respect the strict arc-geometry bounds.
"""

import math

from reactlin import (
    Mat2,
    attractor_with_eigenvalues,
    from_deltas,
    integrate_linear,
    rho_max_bound_eigen,
    rho_max_bound_ortho,
    rho_max_closed,
    rho_max_numeric,
)

a = Mat2(-1.0, -8.0, 0.0, -3.0)
closed = rho_max_closed(a)
numeric = rho_max_numeric(a, step=1e-4)

print(f"A = [[{a.a11}, {a.a12}], [{a.a21}, {a.a22}]]")
print(f"  closed form      rho_max = {closed.rho_max:.10f}  t_max = {closed.t_max:.8f}")
print(f"  numeric oracle   rho_max = {numeric.rho_max:.10f}  t_max = {numeric.t_max:.8f}")
print(f"  entry angle: closed {closed.theta_entry.value:.6f}, "
      f"oracle {numeric.theta_entry.value:.6f}")
print(f"  arc-width bound     -p/m_R = {rho_max_bound_ortho(a):.6f}")
print(f"  eigen-sep bound      p/p_R = {rho_max_bound_eigen(a):.6f}")
print()

x0 = (math.cos(closed.theta_entry.value), math.sin(closed.theta_entry.value))
traj = integrate_linear(a, x0, 1e-4, 2.0)
print(f"  full trajectory from that unit start peaks at r = {traj.r.max():.6f}")
print(f"  start point ({x0[0]:.3f}, {x0[1]:.3f}): the worst-case perturbation")
print()

print("the arc-width bound is sharp as the weak eigenvalue approaches zero:")
print(f"  {'lambda1':>10} {'bound':>10} {'rho_max':>10} {'gap':>10}")
for lam1 in (-1e-1, -1e-2, -1e-3, -1e-4):
    m = attractor_with_eigenvalues(lam1, -3.0, 2.0)
    bound = rho_max_bound_ortho(m)
    rho = rho_max_numeric(m, step=1e-4).rho_max
    print(f"  {lam1:10.0e} {bound:10.6f} {rho:10.6f} {bound - rho:10.6f}")
print()

print("the same formula covers complex and repeated eigenvalues:")
for name, m in (
    ("spiral sink", Mat2(0.7, -4.0, 4.0, -4.7)),
    ("repeated eigenvalue", from_deltas(math.pi / 8, 0.0, 1.0)),
):
    c = rho_max_closed(m)
    n = rho_max_numeric(m, step=1e-3)
    print(f"  {name:>19}: closed rho_max = {c.rho_max:.10f}  t_max = {c.t_max:.8f}")
    print(f"  {'':>19}  oracle rho_max = {n.rho_max:.10f}  t_max = {n.t_max:.8f}")
