"""Triality automorphisms of so(8) and the subalgebras they carve out.

The second basis of so(8) comes from octonion left multiplication L_a:
F_ij = 1/2 L_{e_i} L_{e_j} for i < j (L_{e_0} is the identity, so F_0j is
1/2 L_{e_j}), the classical construction of triality (Baez, "The
Octonions", Bull. AMS 39, 2002).  The involutions

    alpha(X) = conj . X . conj        (conjugation of octonion arguments)
    beta(G_ij) = F_ij                 (extended linearly)
    gamma = beta . alpha

satisfy alpha^2 = beta^2 = id, preserve brackets, and cut out so(7) as the
fixed set of alpha and g2 as the joint fixed set of beta and gamma; the
algebra self-checks verify exactly those properties, in the coordinates of
the 28 matrices G_ij.  They read the brackets from STRUCTURE_CONSTANTS,
[G_a, G_b] = sum_m c[a, b, m] G_m, built at import from one stacked
bracket of the 378 pairs a < b; its certificate rebuilds every one of those
brackets from the table exactly (the entries are -1, 0 and 1) and checks
the antisymmetry that gives the rest, and raises ArithmeticError naming
the first defect.  The named
subalgebras come from one table, SUBALGEBRAS, of dimensions and
generators; their bracket closure is checked on all basis pairs at once.

For X in so(7), the pair (exp tX, exp t gamma(X)) multiplies octonions
compatibly: (g1 a)(g2 b) = g2(ab).  :class:`SpinElement` packages such
pairs; the second component realizes the vector action on the unit sphere
and on the projective line space RP7 used by the orbit computations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    Subspace,
    bracket,
    expm,
    g_basis,
    orthonormalize,
    span_coords,
    v_elem,
)
from .octonion import MUL_TENSOR, SIGN, INDEX

G_PAIRS = tuple((i, j) for i in range(8) for j in range(i + 1, 8))
_G_STACK = np.stack([g_basis(i, j) for i, j in G_PAIRS])


def certify_structure_constants(table: np.ndarray) -> None:
    """Raise ArithmeticError unless [G_a, G_b] = sum_m table[a, b, m] G_m
    holds exactly for every pair: on the 378 pairs a < b by rebuilding the
    bracket, and on the rest by antisymmetry in (a, b)."""
    table = np.asarray(table, dtype=float)
    flipped = np.argwhere(table != -np.swapaxes(table, 0, 1))
    if len(flipped):
        a, b, m = flipped[0]
        raise ArithmeticError(
            f"structure constants: entry ({a}, {b}, {m}) breaks antisymmetry in (a, b)"
        )
    a, b = np.triu_indices(len(_G_STACK), 1)
    rebuilt = (table[a, b] @ _G_STACK.reshape(-1, 64)).reshape(-1, 8, 8)
    defects = np.abs(rebuilt - bracket(_G_STACK[a], _G_STACK[b])).max(axis=(1, 2))
    worst = int(np.argmax(defects))
    if defects[worst] != 0.0:
        (i, j), (k, l) = G_PAIRS[a[worst]], G_PAIRS[b[worst]]
        raise ArithmeticError(
            f"structure constants: [G_{i}{j}, G_{k}{l}] rebuilt with defect {defects[worst]:.3e}"
        )


def _structure_constants() -> np.ndarray:
    a, b = np.triu_indices(len(_G_STACK), 1)
    upper = span_coords(bracket(_G_STACK[a], _G_STACK[b]), _G_STACK)
    table = np.zeros((len(_G_STACK),) * 3)
    table[a, b], table[b, a] = upper, -upper
    certify_structure_constants(table)
    return table


#: Structure constants of so(8) in the G basis, [G_a, G_b] = sum_m
#: STRUCTURE_CONSTANTS[a, b, m] G_m; the entries are -1, 0 and 1.
STRUCTURE_CONSTANTS = _structure_constants()

#: Left multiplications: _LEFT[i] @ y = e_i y, so _LEFT[0] is the identity.
_LEFT = np.swapaxes(MUL_TENSOR, 1, 2)


def f_basis(i: int, j: int) -> np.ndarray:
    """The so(8) basis matrix F_ij; f_basis(j, i) is its negative."""
    if i == j or not (0 <= i <= 7 and 0 <= j <= 7):
        raise ValueError(f"invalid F basis indices ({i}, {j})")
    if i > j:
        return -f_basis(j, i)
    return 0.5 * _LEFT[i] @ _LEFT[j]


_F_STACK = np.stack([f_basis(i, j) for i, j in G_PAIRS])

_CONJ = np.diag([1.0, -1, -1, -1, -1, -1, -1, -1])


def alpha(x: np.ndarray) -> np.ndarray:
    """Conjugation involution; fixes exactly so(7) inside so(8)."""
    return _CONJ @ x @ _CONJ


def beta(x: np.ndarray) -> np.ndarray:
    """Linear extension of G_ij -> F_ij in the G coordinate expansion; ``x``
    may be a stack of matrices."""
    return (span_coords(x, _G_STACK) @ _F_STACK.reshape(28, 64)).reshape(np.shape(x))


def gamma(x: np.ndarray) -> np.ndarray:
    """gamma = beta . alpha."""
    return beta(alpha(x))


@dataclass(frozen=True)
class NamedSubalgebra(Subspace):
    """A bracket-closed subalgebra with an orthonormal basis."""

    name: str


def _traceless(i: int) -> list[np.ndarray]:
    return [v_elem(i, 1, -1, 0), v_elem(i, 0, 1, -1)]


#: The named subalgebras: name -> (dimension, generators).  The generator
#: order fixes the orthonormal basis that orthonormalize returns.
SUBALGEBRAS = {
    "g2": (14, [m for i in range(1, 8) for m in _traceless(i)]),
    "su3": (8, _traceless(1) + [v_elem(i, 0, 1, -1) for i in range(2, 8)]),
    "so4_g2": (6, [m for i in (1, 2, 3) for m in _traceless(i)]),
    "u3": (9, [v_elem(1, *c) for c in np.eye(3)] + [v_elem(i, 0, 1, -1) for i in range(2, 8)]),
    "so3_so4": (9, [g_basis(i, j) for i, j in G_PAIRS if 0 < i < j < 4 or i >= 4]),
    "so7": (21, [g_basis(i, j) for i, j in G_PAIRS if i > 0]),
}


def bracket_closure_defect(sub) -> float:
    """Largest residual (in norm_g) of a basis bracket outside the span."""
    basis = np.asarray(sub.basis, dtype=float)
    i, j = np.triu_indices(len(basis), 1)
    brackets = bracket(basis[i], basis[j])
    coords = span_coords(brackets, basis)
    resid = brackets - (coords @ basis.reshape(len(basis), 64)).reshape(brackets.shape)
    norms_sq = -0.5 * np.einsum("nab,nba->n", resid, resid)
    return float(np.sqrt(np.maximum(norms_sq, 0.0)).max(initial=0.0))


_SUBALGEBRA_CACHE: dict[str, NamedSubalgebra] = {}


def named_subalgebra(name: str) -> NamedSubalgebra:
    """Orthonormalized basis of one of the named subalgebras.

    Valid names are the keys of SUBALGEBRAS.  Closure under the bracket
    and the expected dimension are verified on first construction.
    """
    cached = _SUBALGEBRA_CACHE.get(name)
    if cached is not None:
        return cached
    if name not in SUBALGEBRAS:
        raise ValueError(f"unknown subalgebra name {name!r}")
    expected, generators = SUBALGEBRAS[name]
    sub = orthonormalize(generators)
    if sub.dim != expected:
        raise ArithmeticError(f"{name}: rank {sub.dim}, expected {expected}")
    defect = bracket_closure_defect(sub)
    if defect > 1e-9:
        raise ArithmeticError(f"{name}: bracket closure defect {defect:.3e}")
    out = NamedSubalgebra(sub.basis, sub.dim, name)
    _SUBALGEBRA_CACHE[name] = out
    return out


#: The order-two octonion automorphism fixing e1, e2, e3 and negating
#: e4..e7, extended by sigma(e0) = e0; its commutant in SO(7) has identity
#: component with Lie algebra so3_so4.
SIGMA = np.diag([1.0, 1, 1, 1, -1, -1, -1, -1])


@dataclass(frozen=True)
class SpinElement:
    """A pair (g1, g2) with (g1 a)(g2 b) = g2(ab) for all octonions a, b.

    g1 fixes e0 (it lies in SO(7)); g2 is the compatible action on the
    spinor copy of the octonions.  Pairs compose and invert componentwise.
    """

    g1: np.ndarray
    g2: np.ndarray

    def __matmul__(self, other: "SpinElement") -> "SpinElement":
        return SpinElement(self.g1 @ other.g1, self.g2 @ other.g2)

    def inverse(self) -> "SpinElement":
        return SpinElement(self.g1.T.copy(), self.g2.T.copy())

    @classmethod
    def identity(cls) -> "SpinElement":
        return cls(np.eye(8), np.eye(8))


def spin_lift_exp(x: np.ndarray, t: float) -> SpinElement:
    """Lift of the one-parameter subgroup exp(tX), X in so(7).

    Returns (exp tX, exp t gamma(X)).  Raises when X is not fixed by
    alpha, i.e. not in so(7).
    """
    defect = float(np.abs(alpha(x) - x).max())
    if not defect <= 1e-10:
        raise ValueError(f"generator is not in so(7) (alpha defect {defect:.3e})")
    return SpinElement(expm(x, t), expm(gamma(x), t))


def is_automorphism(g: np.ndarray, tol: float = 1e-9) -> bool:
    """True when g preserves the octonion product on all basis pairs."""
    g = np.asarray(g, dtype=float)
    ortho_defect = float(np.abs(g.T @ g - np.eye(8)).max())
    if not ortho_defect <= tol:
        raise ValueError(f"matrix is not orthogonal (defect {ortho_defect:.3e})")
    lhs = np.einsum("abk,ai,bj->ijk", MUL_TENSOR, g, g)
    rhs = np.transpose(g[:, INDEX], (1, 2, 0)) * SIGN[:, :, None]
    return float(np.abs(lhs - rhs).max()) <= tol


def rp7_invariant(p: SpinElement) -> float:
    """|projection of e0 onto the line through g2(e0)| = |<g2 e0, e0>|.

    Constant along products h . g(t) . k of lifted g2 elements around a
    fixed middle factor, where it equals |cos| of the section angle.
    """
    return float(abs(p.g2[0, 0]))
