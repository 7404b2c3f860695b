"""Self-checks of the algebraic layer, grouped for reporting.

Each check returns a :class:`CheckResult`; :func:`run_all` bundles the
groups the command line surface prints: the basis multiplication contract
on the 8x8 table of the 64 basis products, the composition law, the bracket
rules among the V subspaces, the zeta bracket rules, the triality
involutions with their fixed subalgebras, and the named subalgebra
dimensions with bracket closure (a subalgebra that cannot be built fails
the check with the reason).  Apart from the composition law, every identity
is linear or bilinear in its inputs, so it is checked on a basis, which
makes the check exact for all inputs and seed-free: the V rules on the
3 x 3 pairs of basis coefficients, the zeta rules on the basis (1, -1, 0),
(0, 1, -1) of the coefficients that sum to zero, the triality identities on
the 28 matrices G_ij and their 378 pairs.  Each identity is evaluated on
stacks, one matrix product per map (oct_mul, v_elem per axis, beta, span).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg as la
from . import octonion as oc
from . import triality as tri


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


def check_cayley_contract() -> CheckResult:
    """The 8x8 table of basis products e_i e_j from 64 products: unit,
    squares, anticommutativity, one signed imaginary unit per product of
    distinct imaginary units, and the line partition."""
    eye = np.eye(8)
    table = oc.oct_mul(eye[:, None], eye[None])
    imag = table[1:, 1:]
    distinct = ~np.eye(7, dtype=bool)
    products = imag[distinct]
    # cover[a, b] counts the lines on which b follows a cyclically.
    lines = np.array(oc.FANO_LINES)
    cover = np.zeros((8, 8), dtype=int)
    np.add.at(cover, (lines, np.roll(lines, -1, axis=1)), 1)
    ok = (
        np.array_equal(table[0], eye)
        and np.array_equal(table[:, 0], eye)
        and (np.diagonal(imag).T == -eye[0]).all()
        and np.array_equal(products, -imag.transpose(1, 0, 2)[distinct])
        and (np.count_nonzero(products[:, 1:], axis=1) == 1).all()
        and (np.abs(products).sum(axis=1) == 1).all()
        and np.array_equal(cover + cover.T, np.pad(1 - np.eye(7, dtype=int), (1, 0)))
    )
    return _result("octonion basis product contract", ok, "64 products + line partition")


def check_composition_law(rng) -> CheckResult:
    """|ab| = |a||b| on 1,000 random pairs, multiplied as one stack; the
    relative defect is half that of the squared norms (no roots to round)."""
    pairs = rng.normal(size=(1000, 2, 8))
    rhs = np.prod(np.einsum("...i,...i", pairs, pairs), axis=1)
    product = oc.oct_mul(pairs[:, 0], pairs[:, 1])
    worst = float(np.max(np.abs(np.einsum("...i,...i", product, product) - rhs) / rhs)) / 2
    return _result(
        "composition law |xy| = |x||y|",
        worst <= 1e-12,
        f"1000 random pairs, worst relative defect {worst:.2e}",
    )


def check_v_bracket_rules() -> CheckResult:
    """The nine bracket rules, exact on the 3 x 3 pairs of basis coefficients."""
    exact = True
    for i, j, k, terms in la.V_BRACKET_RULES:
        vi, vj = (la.v_elem(a, *np.eye(3)) for a in (i, j))
        coeffs = np.zeros((3, 3, 3))  # output coefficient m of basis pair (p, q)
        for m, term in enumerate(terms):
            for sgn, p, q in term:
                coeffs[m, p, q] += sgn
        exact &= np.array_equal(la.bracket(vi[:, None], vj[None]), la.v_elem(k, *coeffs))
    return _result(
        "V subspace bracket rules",
        exact,
        "9 rules x 3 x 3 basis coefficient pairs, exact equality",
    )


def check_zeta_bracket_rules() -> CheckResult:
    """The six zeta bracket rules, exact on the two basis triples of the
    coefficients that sum to zero."""
    traceless = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
    exact = True
    for slot, i, j, selector in la.ZETA_BRACKET_RULES:
        zeta_first = slot == "zeta_first"
        v = la.v_elem(j if zeta_first else i, *traceless.T)
        lhs = la.bracket(la.zeta(i), v) if zeta_first else la.bracket(v, la.zeta(j))
        rhs = np.einsum("g,ab->gab", traceless @ np.asarray(selector, dtype=float), la.zeta(4))
        exact &= np.array_equal(lhs, rhs)
    return _result(
        "zeta bracket rules",
        exact,
        "6 rules x 2 basis coefficient triples, exact equality",
    )


def check_triality_involutions() -> CheckResult:
    """alpha^2 = beta^2 = id on the 28 basis matrices G_ij, bracket
    preservation on their 378 pairs (the bracket is antisymmetric), and the
    fixed-set dimensions."""
    g = tri._G_STACK
    images = {phi: phi(g) for phi in (tri.alpha, tri.beta, tri.gamma)}
    a, b = np.triu_indices(len(g), 1)
    brackets = la.bracket(g[a], g[b])
    defects = [tri.alpha(images[tri.alpha]) - g, tri.beta(images[tri.beta]) - g] + [
        phi(brackets) - la.bracket(img[a], img[b]) for phi, img in images.items()
    ]
    worst = max(float(np.abs(d).max()) for d in defects)
    # phi - id in G coordinates: column m comes from the image of G_m.
    alpha_id, beta_id, gamma_id = (la.span_coords(img, g).T - np.eye(28) for img in images.values())
    dim_so7 = 28 - np.linalg.matrix_rank(alpha_id, tol=1e-9)
    dim_g2 = 28 - np.linalg.matrix_rank(np.vstack([beta_id, gamma_id]), tol=1e-9)
    ok = worst <= 1e-10 and dim_so7 == 21 and dim_g2 == 14
    return _result(
        "triality involutions and fixed sets",
        ok,
        f"worst identity defect {worst:.2e} on 28 basis matrices and 378 pairs, "
        f"dim Fix(alpha) = {dim_so7}, dim Fix(beta) & Fix(gamma) = {dim_g2}",
    )


def check_subalgebras() -> CheckResult:
    """Dimensions and bracket closure of the six named subalgebras; one
    that fails its construction fails the check with its message."""
    details = []
    ok = True
    for name, (expected, _) in sorted(tri.SUBALGEBRAS.items()):
        try:
            sub = tri.named_subalgebra(name)
        except ArithmeticError as exc:
            ok = False
            details.append(str(exc))
            continue
        defect = tri.bracket_closure_defect(sub)
        ok &= sub.dim == expected and defect < 1e-9
        details.append(f"{name}:{sub.dim} ({defect:.1e})")
    return _result("named subalgebra dimensions and closure", ok, ", ".join(details))


def run_all(seed: int = 0) -> list[CheckResult]:
    """Run every check group; ``seed`` seeds the composition-law samples,
    the only check that samples its inputs."""
    rng = np.random.default_rng(seed)
    return [
        check_cayley_contract(),
        check_composition_law(rng),
        check_v_bracket_rules(),
        check_zeta_bracket_rules(),
        check_triality_involutions(),
        check_subalgebras(),
    ]
