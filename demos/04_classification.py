"""Tour of the classification layer: minimal, austere, biharmonic orbits.

Run:  python demos/04_classification.py   (well under a second: one
Chebyshev series in cos t per root function and type)
"""

from g2orbits import action_spec, classify, verify_reflection

print("Classifying the four actions (Chebyshev series in cos t of the weighted mean")
print("curvature and |shape|^2 from 16 nodes in (0, pi), roots in closed form from")
print("a quadratic in cos 2t)...")
print()
results = {}
for ty in ("II", "III", "IV", "V"):
    spec = action_spec(ty)
    res = results[ty] = classify(spec)
    print(f"type {ty}  (H = {spec.h.name}, K = {spec.k.name}, "
          f"ambient {spec.ambient.name}, Einstein constant {spec.einstein_constant:g})")
    print(f"  principal window      t in ({spec.t_range[0]:.6f}, {spec.t_range[1]:.6f}),"
          f"  t = {spec.section_ratio:g} s")
    print(f"  singular orbit dims   {res.singular_dims}")
    print(f"  minimal orbit         t = {res.minimal_t:.12f}  (s = {res.minimal_s:.12f})")
    print(f"    closed-form value   t = {res.closed_form_minimal_t:.12f}"
          f"  [delta {abs(res.minimal_t - res.closed_form_minimal_t):.1e}]")
    print(f"    austere             {res.minimal_austere}")
    if ty in ("III", "IV"):
        print(f"    weakly reflective   {verify_reflection(spec)} (explicit isometry verified)")
    for bt, ref in zip(res.biharmonic_t, res.closed_form_biharmonic_t):
        print(f"  proper biharmonic     t = {bt:.12f}  [delta {abs(bt - ref):.1e}]")
    for note in res.discrepancy_notes:
        print(f"  note: {note}")
    for name, diag in res.root_diagnostics:
        print(f"  root finder {name}       n = {diag.n}, tail {diag.tail:.1e}, "
              f"parity defect {diag.defect:.1e}, {diag.evaluations} evaluations")
    print()

print("Summary of austere verdicts at the minimal orbit:")
print(" ", {ty: res.minimal_austere for ty, res in results.items()})
print("Biharmonic root counts:", {ty: len(res.biharmonic_t) for ty, res in results.items()})
