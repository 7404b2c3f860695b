"""Tour of the orbit layer: frames, shape operators, curvature spectra.

Run:  python demos/03_orbit_spectra.py
"""

import numpy as np

from g2orbits import (
    SingularOrbitError,
    action_spec,
    orbit_frame,
    shape_operator,
    spectrum_report,
    unit_normal,
)
from g2orbits.classify import closed_form_spectrum


def fixed(v: float) -> str:
    """``v`` to 12 decimals, rounded first so that a rounding residue of a
    zero prints as +0.000000000000 whatever its sign."""
    return f"{round(v, 12) + 0.0:+.12f}"


print("Orbit dimension profiles (endpoints and a principal parameter):")
for ty in ("II", "III", "IV", "V"):
    spec = action_spec(ty)
    lo, hi = spec.t_range
    mid = 0.5 * (lo + hi)
    dims = [orbit_frame(spec, t).orbit_dim for t in (lo, mid, hi)]
    print(f"  type {ty:3s} t = {lo:.3f} / {mid:.3f} / {hi:.3f}  ->  dims {dims}"
          f"   (ambient dim {spec.ambient.dim})")

print("\nAt a singular parameter the unit normal is refused:")
try:
    unit_normal(action_spec("II"), 0.0)
except SingularOrbitError as err:
    print(f"  type II, t = 0: {err} [codimension {err.codimension}]")

print("\nSpectrum of a type III principal orbit at t = pi/2 (the minimal one):")
rep = spectrum_report(action_spec("III"), np.pi / 2)
for v, m in rep.curvatures:
    print(f"  {fixed(v)}  x {m}")
print(f"  mean curvature {rep.mean_curvature:+.2e}   austere {rep.austere}")

print("\nEngine vs closed forms, type V at t = 1.2:")
rep = spectrum_report(action_spec("V"), 1.2)
ref = closed_form_spectrum("V", 1.2)
for (v, m), (w, n) in zip(rep.curvatures, ref):
    print(f"  engine {fixed(v)} x{m:d}   closed form {fixed(w)} x{n:d}"
          f"   delta {abs(v - w):.1e}")


def normal_norm_sq(spec, t):
    """The frame at g(t) and |B|^2 = sum_i |S_{n_i}|_F^2 over its orthonormal
    normal basis n_i, a number that does not depend on that basis."""
    frame = orbit_frame(spec, t)
    return frame, sum(
        np.sum(shape_operator(spec, t, n, frame=frame) ** 2) for n in frame.normal.basis
    )


print("\nThe type III singular orbit at t = 0 is totally geodesic:")
frame, norm_sq = normal_norm_sq(action_spec("III"), 0.0)
print(f"  dim {frame.orbit_dim}, codim {frame.normal.dim}, "
      f"|B|^2 over an orthonormal normal basis = {norm_sq:.1e}")

print("\n...while the type II singular orbits are not:")
for t in (0.0, np.pi / 2):
    frame, norm_sq = normal_norm_sq(action_spec("II"), t)
    print(f"  t = {t:.4f}: dim {frame.orbit_dim}, |B|^2 = {norm_sq:.4f}")
