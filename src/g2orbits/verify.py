"""Self-checks of the algebraic layer, grouped for reporting.

Each check returns a :class:`CheckResult`; :func:`run_all` bundles the
groups the command line surface prints.  The identity groups mirror the
load-bearing algebraic facts: the basis multiplication contract on the
8x8 table of the 64 basis products, the composition law, the bracket rules
among the V subspaces, the zeta bracket rules, the triality involutions
with their fixed subalgebras, and the named subalgebra dimensions with
bracket closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

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
    table = np.array([[oc.oct_mul(a, b) for b in eye] for a in eye])
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
    worst = 0.0
    for _ in range(1000):
        a = rng.normal(size=8)
        b = rng.normal(size=8)
        lhs = oc.oct_norm(oc.oct_mul(a, b))
        rhs = oc.oct_norm(a) * oc.oct_norm(b)
        worst = max(worst, abs(lhs - rhs) / rhs)
    return _result(
        "composition law |xy| = |x||y|",
        worst <= 1e-12,
        f"1000 random pairs, worst relative defect {worst:.2e}",
    )


def _v_stack(axis: int, grid: np.ndarray) -> np.ndarray:
    basis = np.stack([la.v_elem(axis, *c) for c in np.eye(3)])
    return np.einsum("gp,pab->gab", grid, basis)


def check_v_bracket_rules() -> CheckResult:
    """The nine bracket rules, exact on the full {-2..2}^3 coefficient grid."""
    grid = np.array(list(product((-2.0, -1.0, 0.0, 1.0, 2.0), repeat=3)))
    exact = True
    for i, j, k, terms in la.V_BRACKET_RULES:
        vi = _v_stack(i, grid)
        vj = _v_stack(j, grid)
        lhs = vi[:, None] @ vj[None] - vj[None] @ vi[:, None]
        tensor = np.zeros((3, 3, 3))
        for m, term in enumerate(terms):
            for sgn, p, q in term:
                tensor[m, p, q] += sgn
        out_coeffs = np.einsum("gp,hq,mpq->ghm", grid, grid, tensor)
        rhs = _v_stack(k, out_coeffs.reshape(-1, 3)).reshape(lhs.shape)
        exact &= np.array_equal(lhs, rhs)
    return _result(
        "V subspace bracket rules",
        exact,
        f"9 rules x {len(grid) ** 2} coefficient pairs, exact equality",
    )


def check_zeta_bracket_rules() -> CheckResult:
    """The six zeta bracket rules on the traceless coefficient sublattice."""
    grid = np.array(
        [c for c in product((-2.0, -1.0, 0.0, 1.0, 2.0), repeat=3) if sum(c) == 0.0]
    )
    z4 = la.zeta(4)
    exact = True
    for slot, i, j, selector in la.ZETA_BRACKET_RULES:
        scalars = grid @ np.asarray(selector, dtype=float)
        if slot == "zeta_first":
            lhs = la.bracket(la.zeta(i), _v_stack(j, grid))
        else:
            lhs = la.bracket(_v_stack(i, grid), la.zeta(j))
        rhs = np.einsum("g,ab->gab", scalars, z4)
        exact &= np.array_equal(lhs, rhs)
    return _result(
        "zeta bracket rules",
        exact,
        f"6 rules x {len(grid)} traceless coefficient triples, exact equality",
    )


def check_triality_involutions(rng) -> CheckResult:
    """alpha^2 = beta^2 = id, bracket preservation, fixed-set dimensions."""
    worst = 0.0
    for _ in range(25):
        x = rng.normal(size=(8, 8))
        x = x - x.T
        worst = max(worst, float(np.abs(tri.alpha(tri.alpha(x)) - x).max()))
        worst = max(worst, float(np.abs(tri.beta(tri.beta(x)) - x).max()))
        y = rng.normal(size=(8, 8))
        y = y - y.T
        for phi in (tri.alpha, tri.beta, tri.gamma):
            worst = max(
                worst,
                float(
                    np.abs(
                        phi(la.bracket(x, y)) - la.bracket(phi(x), phi(y))
                    ).max()
                ),
            )
    g_stack = tri._G_STACK
    alpha_mat, beta_mat, gamma_mat = (
        np.stack([la.span_coords(phi(g), g_stack) for g in g_stack], axis=1)
        for phi in (tri.alpha, tri.beta, tri.gamma)
    )
    eye = np.eye(28)
    dim_so7 = 28 - np.linalg.matrix_rank(alpha_mat - eye, tol=1e-9)
    dim_g2 = 28 - np.linalg.matrix_rank(
        np.vstack([beta_mat - eye, gamma_mat - eye]), tol=1e-9
    )
    ok = worst <= 1e-10 and dim_so7 == 21 and dim_g2 == 14
    return _result(
        "triality involutions and fixed sets",
        ok,
        f"worst identity defect {worst:.2e}, dim Fix(alpha) = {dim_so7}, "
        f"dim Fix(beta) & Fix(gamma) = {dim_g2}",
    )


def check_subalgebras() -> CheckResult:
    """Dimensions and bracket closure of the six named subalgebras."""
    details = []
    ok = True
    for name, (expected, _) in sorted(tri.SUBALGEBRAS.items()):
        sub = tri.named_subalgebra(name)
        defect = tri.bracket_closure_defect(sub)
        ok &= sub.dim == expected and defect < 1e-9
        details.append(f"{name}:{sub.dim} ({defect:.1e})")
    return _result("named subalgebra dimensions and closure", ok, ", ".join(details))


def run_all(seed: int = 0) -> list[CheckResult]:
    """Run every check group with a deterministic seed."""
    rng = np.random.default_rng(seed)
    return [
        check_cayley_contract(),
        check_composition_law(rng),
        check_v_bracket_rules(),
        check_zeta_bracket_rules(),
        check_triality_involutions(rng),
        check_subalgebras(),
    ]
