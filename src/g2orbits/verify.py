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
stacks: one oct_mul call for the products, one v_elem call per axis for a
table of the V elements, one bracket call for all V rules and one for all
zeta rules.  The triality identities are checked in G coordinates: each
map becomes a 28 x 28 matrix, and the brackets of the basis are read from
the structure constants of so(8), so no 8x8 bracket is formed.
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


def _v_table() -> np.ndarray:
    """V_axis at the three basis coefficient triples, shape (7, 3, 8, 8):
    entry [axis - 1, p] is V_axis(e_p), one v_elem call per axis."""
    return np.stack([la.v_elem(axis, *np.eye(3)) for axis in range(1, 8)])


def check_v_bracket_rules() -> CheckResult:
    """The nine bracket rules, exact on the 3 x 3 pairs of basis coefficients:
    all 81 brackets in one stack, against each rule's coefficient tensor
    applied to the V table."""
    v = _v_table()
    i, j, k, rule_terms = zip(*la.V_BRACKET_RULES)
    coeffs = np.zeros((len(rule_terms), 3, 3, 3))  # output coefficient m of rule r on pair (p, q)
    for r, terms in enumerate(rule_terms):
        for m, term in enumerate(terms):
            for sgn, p, q in term:
                coeffs[r, p, q, m] += sgn
    lhs = la.bracket(v[np.array(i) - 1][:, :, None], v[np.array(j) - 1][:, None])
    rhs = coeffs.reshape(-1, 9, 3) @ v[np.array(k) - 1].reshape(-1, 3, 64)
    return _result(
        "V subspace bracket rules",
        np.array_equal(lhs, rhs.reshape(lhs.shape)),
        "9 rules x 3 x 3 basis coefficient pairs, exact equality",
    )


def check_zeta_bracket_rules() -> CheckResult:
    """The six zeta bracket rules, exact on the two basis triples of the
    coefficients that sum to zero: all 12 brackets in one stack."""
    traceless = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
    v = _v_table()
    zetas = v.sum(axis=1)[:, None]  # zeta_axis = V_axis(1, 1, 1)
    v_traceless = (traceless @ v.reshape(7, 3, 64)).reshape(7, 2, 8, 8)
    slots, i, j, selectors = zip(*la.ZETA_BRACKET_RULES)
    i, j = np.array(i) - 1, np.array(j) - 1
    zeta_first = (np.array(slots) == "zeta_first")[:, None, None, None]
    lhs = la.bracket(
        np.where(zeta_first, zetas[i], v_traceless[i]),
        np.where(zeta_first, v_traceless[j], zetas[j]),
    )
    multiples = np.array(selectors, dtype=float) @ traceless.T
    return _result(
        "zeta bracket rules",
        np.array_equal(lhs, multiples[:, :, None, None] * zetas[3]),
        "6 rules x 2 basis coefficient triples, exact equality",
    )


def check_triality_involutions() -> CheckResult:
    """alpha^2 = beta^2 = id on the 28 basis matrices G_ij, bracket
    preservation on their 378 pairs (the bracket is antisymmetric), and the
    fixed-set dimensions, all in G coordinates.

    M_phi is the 28 x 28 matrix whose column a holds the G coordinates of
    phi(G_a); the residual of each image off so(8) is checked, so M_phi
    represents phi there.  With the structure constants c of the G basis,
    phi preserves brackets when M c(e_a, e_b) = c(M e_a, M e_b).  All
    entries are dyadic, so a sound triality reports the defect 0.
    """
    g = tri._G_STACK
    c = tri.STRUCTURE_CONSTANTS
    n = len(g)
    a, b = np.triu_indices(n, 1)
    brackets = c[a, b]
    eye = np.eye(n)
    worst = 0.0
    minus_id = []  # phi - id in G coordinates
    for phi in (tri.alpha, tri.beta, tri.gamma):
        image = phi(g)
        m = la.span_coords(image, g).T
        off_so8 = image - (m.T @ g.reshape(n, 64)).reshape(image.shape)
        # c(M e_a, M e_b): contract the first slot of c with M, then the second.
        of_images = np.matmul(m.T, (m.T @ c.reshape(n, -1)).reshape(n, n, n))[a, b]
        defects = [off_so8, brackets @ m.T - of_images]
        if phi is not tri.gamma:
            defects.append(m @ m - eye)
        worst = max([worst] + [float(np.abs(d).max()) for d in defects])
        minus_id.append(m - eye)
    dim_so7 = n - np.linalg.matrix_rank(minus_id[0], tol=1e-9)
    dim_g2 = n - np.linalg.matrix_rank(np.vstack(minus_id[1:]), tol=1e-9)
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
