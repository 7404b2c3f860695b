"""Orbit geometry of the four two-sided actions at points of the geodesic.

Each configured action is a product group H x K acting on an ambient
compact group (G2 or SO(7)) by (h, k) . x = h x k^{-1}.  Along the fixed
one-parameter geodesic g(t), the orbit tangent space translated back to
the identity is Ad(g(t))^{-1} h + k.  A tangent vector u is realized by a
Killing field through a lift, a pair (X, Y) in h x k with

    Ad(g(t))^{-1} X - Y = u,

and the shape operator in a unit normal n comes from the bi-invariant
Levi-Civita connection:

    S_ij = -1/2 < [Ad^{-1} X_i - Y_i, Ad^{-1} X_j + Y_j], n >.

The value is independent of the lift choice (the second fundamental form
is tensorial), so any exact solution is acceptable.

Two kernels compute the frames, in orthonormal coordinates e_a of the
ambient algebra and for a whole block of t at once.  Neither forms
g(t) = I + sin t X + 2 sin^2(t/2) X^2: the rows H of Ad(g(t))^{-1} h are a
trigonometric polynomial in t whose five coefficient blocks each spec
derives and certifies once (see :class:`ActionSpec`), so H and its parts
off k are one product per t.  Both lift the tangent rows [K; W] (the lifts
of the K rows are -K, those of W are refined once against the full rows
[H; K]), and with T the tangent rows, P the rows of Ad^{-1} X_i + Y_i and
ad_n[a, b] = <e_a, [e_b, n]>, the shape operator is S = -1/2 T ad_n P^T.

- :func:`_frames`, the general kernel, serves every orbit, singular ones
  too: as k is the same at every t, one SVD of the rows H off k gives the
  rank, the tangent rows, the normal rows and the lifts.  Orbit frames,
  shape operators in any normal, the codimensions of the singular orbits
  and the frame at the minimal parameter on which :func:`verify_reflection`
  certifies the orbit-reversing isometry x -> a x^eps b of types III and IV
  come from it.
- :func:`_principal_lifts`, the principal kernel, takes no SVD: the actions
  are hyperpolar, so the spec certifies that xi is normal to every orbit,
  and the tangent space of every principal orbit is the constant xi^perp
  with the spec's fixed rows [K; W].  One QR of the coordinates of H in W
  gives the lifts and certifies the rank.  Spectrum reports (at one t, or
  with :func:`spectrum_reports` over an array of t), and H and |A|^2
  together (:func:`curvature_invariants`) over whole arrays of t (block by
  block) come from it.

As the K rows are orthonormal, the kept singular values of the full rows
[H; K] and of the rows off k have products that differ only by the
constant factor 2^(m/2), m the dimension of the isotropy algebra, so a
log-volume of the orbit can be read off either kernel at no extra call:
the SVD's log sigma_i, or the QR's log |R_ii|, which sum to the same (the
coordinates of the rows off k in W keep their sigma_i, and |det R| is
their product).

An :class:`ActionSpec` is the record of its type from
:mod:`g2orbits.actions` (groups, geodesic and section generators, parameter
ranges, closed forms) and everything derived from it in one pass: the
geometry, the kernels' coefficients, the codimensions of the singular orbits
and the reference parameters.  Only the record's fields can be set, so a
spec built by ``dataclasses.replace`` is as consistent as one of the four
built by :func:`action_spec`.  The unit normal at a principal parameter is
oriented along the section generator, and t = section_ratio * s.  When it is
built, every spec certifies what the kernels then assume at every t:
X^3 = -X (so the closed form of g(t) and the five coefficient blocks are
exact), an orthonormal basis [K; K_perp] of the ambient algebra,
Ad(g(t))^{-1} h inside the ambient algebra and orthogonal to xi at every
t, certified on the five coefficient blocks rather than on samples of t,
and K xi = 0; and what the classification's root finder assumes of the
orbit space: g(pi) normalises h, and the order-two automorphism sigma
(``triality.SIGMA``) maps the ambient algebra, h and k into themselves and
reverses X and xi, so t -> t + pi and t -> -t are isometries between
orbits.  :func:`_geodesic` forms g(t) itself only for
:func:`verify_reflection`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .actions import ACTIONS, ActionRecord, action_record
from .linalg import (
    NotASubspaceError,
    Subspace,
    _from_rows,
    _to_rows,
    bracket,
    expm,
    inner_g,
    off_span,
    orthonormalize,  # noqa: F401  (a binding site perfbench's tracer self-test wraps)
    ranked_svd,
    sym_eigen,
    v_elem,
)
from .triality import SIGMA, NamedSubalgebra, named_subalgebra

ACTION_TYPES = tuple(ACTIONS)

#: Parameters per block of the frame kernel.  Each block is reduced to H
#: and |A|^2 before the next one starts, which bounds the working memory.
FRAME_BLOCK = 32

#: Principal-orbit reports refuse parameters this close to a singular one.
SINGULAR_GUARD = 1e-6

#: Tolerance of each defect of the reflection certificate.
REFLECTION_TOL = 1e-9


class SingularOrbitError(RuntimeError):
    """The orbit at the requested parameter is not a hypersurface."""

    def __init__(self, message: str, codimension: int):
        super().__init__(message)
        self.codimension = codimension


#: A field of :class:`ActionSpec` derived from the record: not set, compared or hashed.
_derived = partial(field, init=False, compare=False)


@dataclass(frozen=True, kw_only=True)
class ActionSpec(ActionRecord):
    """The record of one action type and everything derived from it.

    Only the record's fields are set by the constructor; every other field
    is derived from them by :meth:`__post_init__`, so ``dataclasses.replace``
    of a record field yields a consistent spec and refuses a derived field,
    and two specs are equal (and hash alike) when their records are.
    g(t) = exp(tX) is formed from X = ``geodesic_generator`` alone.  The
    fields ``ambient_rows`` to ``ad_section`` describe the ambient algebra in
    the orthonormal coordinates (under inner_g, basis e_a) in which frames
    are computed, ``tangent_rows`` and ``tangent_ad`` are the fixed tangent
    rows of the principal orbits, ``h_terms`` to ``h_terms_w`` are the
    coefficients of the kernels' rows, and the last five hold the facts and
    references of :func:`_references`.  A spec is built only when the two
    isometries of its orbit space hold (see :meth:`__post_init__`): the
    orbits at t and t + pi have the same shape operators in the fixed
    frame, and those at t and -t have negated spectra.
    """

    ambient: NamedSubalgebra = _derived()
    h: NamedSubalgebra = _derived()
    k: NamedSubalgebra = _derived()
    geodesic_generator: np.ndarray = _derived()  # X, with X^3 = -X certified
    section_generator: np.ndarray = _derived()
    ambient_rows: np.ndarray = _derived()  # (d, 64), the e_a as rows
    k_coords: np.ndarray = _derived()  # (k.dim, d), coordinates of the basis of k
    k_perp: np.ndarray = _derived()  # (d - k.dim, d), orthonormal complement of k
    unit_section: np.ndarray = _derived()  # (d,), the unit section generator xi
    ad_section: np.ndarray = _derived()  # (d, d), [a, b] = <e_a, [e_b, xi]>
    tangent_rows: np.ndarray = _derived()  # (d - 1, d), [K; W], W spanning xi^perp in k^perp
    tangent_ad: np.ndarray = _derived()  # (d - 1, d), [K; W] ad_section
    h_terms: np.ndarray = _derived(repr=False)  # (5, p, d), see __post_init__
    h_terms_perp: np.ndarray = _derived(repr=False)  # (5, p, d - q)
    h_terms_w: np.ndarray = _derived(repr=False)  # (5, p, d - q - 1)
    normal_speed_sq: float = _derived()  # c^2
    ricci: float = _derived()  # Ric(xi, xi)
    singular_codims: tuple[int, ...] = _derived()  # k_s at each entry of singular_ts
    minimal_t: float = _derived()
    biharmonic_t: tuple[float, ...] = _derived()

    def __post_init__(self):
        """Derive every field past the record's in one pass: the geometry, the
        checks of the assumptions of the kernels (see the module docstring),
        their fixed tangent rows and coefficients, the codimensions of the
        singular orbits from the frame kernel, and the references.  A spec
        that breaks an assumption is refused.

        With s = sin t and c = 2 sin^2(t/2), g(t) = I + s X + c X^2, and as
        X^3 = -X (so s^2 = 2c - c^2 may be traded for c and c^2), exactly

            g^T h g = M_0 + s M_1 + c M_2 + s c M_3 + c^2 M_4,

        with M_0 = h, M_1 = [h, X], M_2 = h X^2 + X^2 h - 2 X h X,
        M_3 = X^2 h X - X h X^2 and M_4 = X^2 h X^2 + X h X.  Ad(g(t))^{-1} h
        stays inside the ambient algebra at every t iff each M_j (for each
        h_p) does, and it is orthogonal to xi at every t iff each M_j is, so
        both are certified on the M_j themselves.  With K xi = 0 as well, the
        tangent space of every principal orbit is the constant xi^perp, whose
        rows [K; W] (W an orthonormal basis of xi^perp in k^perp, from the null
        space of one SVD of [K; xi]) are ``tangent_rows``.  ``h_terms`` holds
        the ambient coordinates of the M_j, (5, p, d), ``h_terms_perp`` those
        times K_perp^T, (5, p, d - q), and ``h_terms_w`` those times W^T,
        (5, p, d - q - 1).

        Two certificates fold the period of t onto the orbit space, which
        :func:`g2orbits.classify.classify` samples on (0, pi/2) only.
        (a) g(pi) = I + 2 X^2 normalises h; then Ad(g(t + pi))^{-1} h =
        Ad(g(t))^{-1} h, so the lifts and the shape operators at t and t + pi
        agree.  (b) sigma = ``triality.SIGMA`` is orthogonal, Ad(sigma) maps
        the ambient algebra, h and k into themselves, Ad(sigma) X = -X and
        Ad(sigma) xi = -xi; then conjugation by sigma maps the orbit through
        g(t) onto the one through g(-t) and reverses xi, so H(-t) = -H(t)
        and |A|^2 is even.  Each identity must hold to 1e-12, else
        ValueError names it and its defect.
        """

        def derive(**values):
            for name, value in values.items():
                object.__setattr__(self, name, value)

        def certify(*claims):
            for claim, defect in claims:
                if defect > 1e-12:
                    raise ValueError(f"type {self.action_type}: {claim} (defect {defect:.3e})")

        ambient, k = named_subalgebra(self.ambient_name), named_subalgebra(self.k_name)
        x, section = v_elem(4, *self.geodesic), v_elem(4, *self.section)
        rows = _to_rows(ambient.basis)
        k_coords = _to_rows(k.basis) @ rows.T
        k_perp = np.linalg.svd(k_coords)[2][k.dim:]
        unit_section = _to_rows(section[None])[0] @ rows.T
        unit_section /= np.linalg.norm(unit_section)
        ad_section = _ad_matrix(ambient.basis, unit_section)
        derive(
            ambient=ambient, h=named_subalgebra(self.h_name), k=k, geodesic_generator=x,
            section_generator=section, ambient_rows=rows, k_coords=k_coords, k_perp=k_perp,
            unit_section=unit_section, ad_section=ad_section,
            normal_speed_sq=inner_g(x, section) ** 2 / inner_g(section, section),
            ricci=0.25 * float(np.sum(ad_section**2)),
        )
        kk = np.concatenate([k_coords, k_perp])
        certify(
            ("geodesic X^3 = -X fails", np.abs(x @ x @ x + x).max()),
            ("[k; k_perp] is not an orthogonal basis", np.abs(kk @ kk.T - np.eye(len(kk))).max()),
        )
        h, x2 = self.h.basis, x @ x
        xhx = x @ h @ x
        terms = np.stack(
            [h, h @ x - x @ h, h @ x2 + x2 @ h - 2 * xhx, x2 @ h @ x - x @ h @ x2,
             x2 @ h @ x2 + xhx]
        ).reshape(-1, 8, 8)
        residual = off_span(terms, ambient.basis)
        if residual > 2e-10:
            raise NotASubspaceError(
                f"type {self.action_type}: Ad(g)^-1 h leaves the ambient algebra "
                f"(residual {residual:.3e} over the five coefficients M_j)"
            )
        coords = (_to_rows(terms) @ rows.T).reshape(5, len(h), -1)
        g_pi = np.eye(8) + 2 * x2
        certify(
            ("the section generator is not normal to the orbits: max |<xi, k_i>|",
             np.abs(k_coords @ unit_section).max()),
            ("the section generator is not normal to the orbits: max |<xi, M_j>|",
             np.abs(coords @ unit_section).max()),
            ("g(pi) = I + 2 X^2 does not normalise h", off_span(g_pi @ h @ g_pi.T, h)),
            ("sigma is not orthogonal", np.abs(SIGMA @ SIGMA.T - np.eye(8)).max()),
            *((f"Ad(sigma) does not map {sub.name} into itself",
               off_span(SIGMA @ sub.basis @ SIGMA.T, sub.basis)) for sub in (ambient, self.h, k)),
            ("Ad(sigma) X = -X fails", np.abs(SIGMA @ x @ SIGMA.T + x).max()),
            ("Ad(sigma) xi = -xi fails", np.abs(SIGMA @ section @ SIGMA.T + section).max()),
        )
        w = np.linalg.svd(np.concatenate([k_coords, unit_section[None]]))[2][k.dim + 1:]
        tangent = np.concatenate([k_coords, w])
        derive(
            tangent_rows=tangent, tangent_ad=tangent @ ad_section, h_terms=coords,
            h_terms_perp=coords @ k_perp.T, h_terms_w=coords @ w.T,
        )
        codims = tuple(ambient.dim - _frames(self, np.array([s]))[1] for s in self.singular_ts)
        derive(singular_codims=codims)
        minimal_t, biharmonic_t = _references(self)
        derive(minimal_t=minimal_t, biharmonic_t=biharmonic_t)


@lru_cache(maxsize=None)
def action_spec(action_type: str) -> ActionSpec:
    """The configuration of one of the action types II, III, IV, V."""
    return ActionSpec(**vars(action_record(action_type)))


def _references(spec: ActionSpec) -> tuple[float, tuple[float, ...]]:
    """``minimal_t`` and ``biharmonic_t`` from c^2, Ric(xi, xi) and the
    codimensions k_s (``singular_codims``) of the singular orbits, with s
    taken mod pi once (at 0 and pi/2 for all four types).

    The orbit volume goes as prod sin^(k_s - 1)(t - s) (Hsiang-Lawson,
    J. Differential Geom. 5 (1971)), so H = -(1/c) sum (k_s - 1) cot(t - s)
    vanishes at u = tan^2 t = a/b, a = k_0 - 1 and b = k_(pi/2) - 1 (t = pi/2
    if b = 0).  By the Riccati identity |A|^2 = lambda at the roots of
    b u^2 + (a + b - c^2 (lambda + Ric)) u + a; those at t and pi - t in the
    window, more than 1e-6 from the minimal parameter, are the proper
    biharmonic orbits (Ou, Pacific J. Math. 248 (2010)).  A declared
    singular parameter whose orbit is principal raises ValueError.
    """
    exponents = {}
    for s, k in zip(spec.singular_ts, spec.singular_codims):
        if k < 2:
            raise ValueError(
                f"type {spec.action_type}: the orbit at the singular parameter t={s} is principal"
            )
        exponents[float(np.mod(s, np.pi))] = k - 1
    a, b = exponents.get(0.0, 0), exponents.get(np.pi / 2, 0)
    us = np.roots([b, a + b - spec.normal_speed_sq * (spec.einstein_constant + spec.ricci), a])
    us = us[np.isreal(us)].real
    arctans = [np.arctan(np.sqrt(u)) for u in us if u > 0]
    minimal = float(np.arctan(np.sqrt(a / b))) if b else np.pi / 2
    lo, hi = spec.t_range
    biharmonic = sorted(
        float(t) for r in arctans for t in (r, np.pi - r)
        if lo < t < hi and abs(t - minimal) > 1e-6
    )
    return minimal, tuple(biharmonic)


def _ad_matrix(basis: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """[a, b] = <e_a, [e_b, v]> for v = sum_a coords[a] e_a, where the e_a
    (``basis``) are orthonormal under inner_g."""
    brackets = bracket(basis, np.einsum("a,abc->bc", coords, basis))
    return _to_rows(basis) @ _to_rows(brackets).T


@dataclass(frozen=True)
class OrbitFrame:
    """Identity-translated tangent data of the orbit through g(t).

    The rows of ``tangent_rows`` (the tangent basis u_i) and ``lift_rows``
    (Ad^{-1} X_i + Y_i for lifts (X_i, Y_i) of the u_i) are coordinates in
    the orthonormal basis of the ambient algebra.
    """

    t: float
    tangent: Subspace
    normal: Subspace
    tangent_rows: np.ndarray  # (tangent.dim, d)
    lift_rows: np.ndarray  # (tangent.dim, d)
    lift_residual: float

    @property
    def orbit_dim(self) -> int:
        return self.tangent.dim


def _geodesic(spec: ActionSpec, t) -> np.ndarray:
    """g(t) = exp(tX) = I + sin t X + 2 sin^2(t/2) X^2 at each entry of ``t``."""
    ts = np.asarray(t, dtype=float)[..., None, None]
    x = spec.geodesic_generator
    return np.eye(8) + np.sin(ts) * x + 2 * np.sin(ts / 2) ** 2 * (x @ x)


def _trig_rows(ts: np.ndarray, *terms: np.ndarray) -> list[np.ndarray]:
    """sum_j phi_j(t) C[j], (n, p, m), at each parameter of ``ts`` for each
    coefficient block C of shape (5, p, m) in ``terms``: one product phi(t) C
    per t, phi = (1, s, c, s c, c^2) with s = sin t and c = 2 sin^2(t/2), so
    the rows at a t do not depend on the block it is computed in."""
    s, c = np.sin(ts), 2 * np.sin(ts / 2) ** 2
    phi = np.empty((len(ts), 1, 5))
    phi[:, 0, 0] = 1.0
    phi[:, 0, 1], phi[:, 0, 2], phi[:, 0, 3], phi[:, 0, 4] = s, c, s * c, c * c
    return [(phi @ t.reshape(5, -1)).reshape(len(ts), t.shape[1], -1) for t in terms]


def _generator_rows(spec: ActionSpec, ts: np.ndarray):
    """The ambient coordinates of Ad(g(t))^{-1} h_p, (n, p, d), and their
    k_perp coordinates, (n, p, d - q), at each parameter of ``ts``, from the
    certified coefficients of :meth:`ActionSpec.__post_init__`."""
    return _trig_rows(ts, spec.h_terms, spec.h_terms_perp)


def _refined_lifts(from_h, k_coords, w, ts):
    """The lift rows Ad^{-1} X_i + Y_i of the tangent rows [K; W] and the
    lift residual per t, in both kernels, from the rows ``from_h`` = C^T H
    of first coefficients C (n, p, r) on the rows H of Ad(g(t))^{-1} h,
    with C^T H = W up to its k part and rounding.

    The lifts of the K rows are exactly -K.  Those of W take C on H and
    C_k = -(K H^T) C on K, so that C^T H + C_k^T K = W, refined once against
    the full rows [H; K]: with E = W - C^T H - C_k^T K, C += C W E^T and
    C_k += K E^T + C_k W E^T (the k coefficients I of the K rows take the k
    part of the error).  Only the rows C^T H and C_k^T K enter the lifts, so
    the step acts on them: with S = E W^T, C^T H += S C^T H and
    C_k^T K += E K^T K + S C_k^T K.  Refined in k-perp coordinates only,
    the lifts lose 1.5 to 3 digits of |A|^2 at t = 1e-4.  ``residual`` is
    the largest entry of the remaining error; above 1e-9 the lifts are
    refused with ArithmeticError.  ``w`` is (r, d) or one (n, r, d) stack.
    """
    k_proj = k_coords.T @ k_coords
    from_k = -from_h @ k_proj
    err = w - from_h - from_k
    step = err @ np.swapaxes(w, -1, -2)
    from_h = from_h + step @ from_h
    from_k = from_k + err @ k_proj + step @ from_k
    residual = np.abs(from_h + from_k - w).max(axis=(1, 2), initial=0.0)
    if np.any(residual > 1e-9):
        i = int(np.argmax(residual))
        raise ArithmeticError(
            f"Killing-field lift residual {residual[i]:.3e} at t={ts[i]}"
        )
    (n, r, d), q = from_h.shape, len(k_coords)
    lifts = np.empty((n, q + r, d))
    lifts[:, :q] = -k_coords
    np.subtract(from_h, from_k, out=lifts[:, q:])
    return lifts, residual


def _frames(spec: ActionSpec, ts: np.ndarray):
    """The general frame kernel: ``vt, dim, lifts, residual`` at each
    parameter of ``ts``, from one SVD U diag(sing) V^T of the reduced rows
    H K_perp^T.  It serves every orbit, singular ones too; the principal
    shape operators come from :func:`_principal_lifts` instead.

    The rows H (the ambient coordinates of Ad(g(t))^{-1} h_p) and the
    reduced rows come from :func:`_generator_rows`, the spec's certified
    coefficients, so g(t) itself is never formed and the rows lie in the
    ambient algebra exactly; K (q rows) and K_perp are ``spec.k_coords``
    and ``spec.k_perp``.
    The rank r of the reduced rows counts the singular values above
    1e-9 max(1, sing_max): the floor keeps a block that is all rounding
    (type III at t = 0, where h = k) at rank 0.
    ``dim`` = q + r is the largest rank of the block; a parameter of lower
    rank raises :class:`SingularOrbitError` with its codimension
    d - q - r.  ``vt`` stacks K over V^T K_perp: the tangent rows
    vt[:, :dim] are [K; W] and the normal rows vt[:, dim:].  The lifts
    (:func:`_refined_lifts`) start from C = U[:, :r] / sing[:r], and
    ``lifts`` stacks -K over the rows Ad^{-1} X_i + Y_i of W.
    """
    d = spec.ambient.dim
    h_coords, reduced = _generator_rows(spec, ts)
    q = spec.k.dim
    u, sing, vt_red, dims = ranked_svd(reduced, abs_tol=1e-9)
    dim_r = int(dims.max())
    if np.any(dims < dim_r):
        i = int(np.argmax(dims < dim_r))
        raise SingularOrbitError(
            f"type {spec.action_type} orbit at t={ts[i]} has codimension {d - q - dims[i]}",
            codimension=int(d - q - dims[i]),
        )
    vt = np.concatenate(
        [np.broadcast_to(spec.k_coords, (len(ts), q, d)), vt_red @ spec.k_perp], axis=1
    )
    from_h = (np.swapaxes(u[..., :dim_r], 1, 2) / sing[:, :dim_r, None]) @ h_coords
    lifts, residual = _refined_lifts(from_h, spec.k_coords, vt[:, q:q + dim_r], ts)
    return vt, q + dim_r, lifts, residual


def _principal_lifts(spec: ActionSpec, ts: np.ndarray):
    """The principal kernel: ``lifts, residual`` of the fixed tangent rows
    ``spec.tangent_rows`` = [K; W] at each parameter of ``ts``, with no SVD.

    The spec certifies that Ad(g(t))^{-1} h and k are orthogonal to xi at
    every t, so the rows H of Ad(g(t))^{-1} h are A W + (H K^T) K with
    A = phi(t) ``spec.h_terms_w``, p x r.  One batched QR A = Q R gives the
    coefficients C = Q R^-T, with C^T A = I, which :func:`_refined_lifts`
    refines.  The orbit is principal when A has rank r = d - q - 1, and the
    rank is certified by sigma_min(A) >= 1 / |R^-1|_F > 1e-9 max(1, |R|_F),
    which is stricter than the rank rule of :func:`_frames`.  A parameter
    that fails it (or has an exactly singular R) raises
    :class:`SingularOrbitError` with the codimension :func:`_frames` finds
    there.
    """
    h_coords, a = _trig_rows(ts, spec.h_terms, spec.h_terms_w)
    q_factor, r_factor = np.linalg.qr(a)
    try:
        r_inv = np.linalg.inv(r_factor)
    except np.linalg.LinAlgError:  # a triangular R is singular iff its diagonal has a 0
        certified = np.diagonal(r_factor, axis1=1, axis2=2).all(axis=1)
    else:  # squared: |R^-1|_F^2 (1e-9 max(1, |R|_F))^2 < 1
        inv_sq = np.einsum("nij,nij->n", r_inv, r_inv)
        r_sq = np.einsum("nij,nij->n", r_factor, r_factor)
        certified = 1e-18 * inv_sq * np.maximum(1.0, r_sq) < 1.0
    if not certified.all():
        i = int(np.argmin(certified))
        codim = spec.ambient.dim - _frames(spec, ts[i:i + 1])[1]
        raise SingularOrbitError(
            f"type {spec.action_type} orbit at t={ts[i]} has codimension {codim}",
            codimension=codim,
        )
    from_h = r_inv @ np.swapaxes(q_factor, 1, 2) @ h_coords
    return _refined_lifts(from_h, spec.k_coords, spec.tangent_rows[spec.k.dim:], ts)


def _shapes(tangent_ad, lifts, ts) -> np.ndarray:
    """S = -1/2 (T ad) P^T for the products ``tangent_ad`` of tangent rows T
    and ad_n (one or a stack) and stacks of lift rows P, checked for
    symmetry up to 1e-9 relative to the entry scale (which grows like cot
    near singular parameters) and then symmetrised."""
    s = -0.5 * tangent_ad @ np.swapaxes(lifts, 1, 2)
    s_t = np.swapaxes(s, 1, 2)
    defect = np.abs(s - s_t).max(axis=(1, 2))
    scale = np.maximum(1.0, np.abs(s).max(axis=(1, 2)))
    if np.any(defect > 1e-9 * scale):
        i = int(np.argmax(defect / scale))
        raise ArithmeticError(f"shape operator asymmetry defect {defect[i]:.3e} at t={ts[i]}")
    return 0.5 * (s + s_t)


def orbit_frame(spec: ActionSpec, t: float) -> OrbitFrame:
    """Tangent space, normal space and Killing-field lifts at g(t).

    The tangent space is the span of { Ad(g(t))^{-1} h_i } together with
    the basis of k; the normal space is its complement in the ambient
    algebra.  Both bases and the lifts, which solve Ad^{-1} X - Y = u up
    to ``lift_residual``, come from the frame kernel at one parameter.
    """
    vt, dim, lifts, residual = _frames(spec, np.array([t], dtype=float))
    tangent = Subspace(_from_rows(vt[0, :dim] @ spec.ambient_rows), dim)
    normal = Subspace(_from_rows(vt[0, dim:] @ spec.ambient_rows), len(vt[0]) - dim)
    return OrbitFrame(t, tangent, normal, vt[0, :dim], lifts[0], float(residual[0]))


def unit_normal(spec: ActionSpec, t: float, frame: OrbitFrame | None = None) -> np.ndarray:
    """The unit normal at g(t), oriented along the section generator.

    Only defined at principal parameters (orbit codimension one); at a
    singular parameter a :class:`SingularOrbitError` carries the actual
    codimension.
    """
    if frame is None:
        frame = orbit_frame(spec, t)
    if frame.normal.dim != 1:
        raise SingularOrbitError(
            f"type {spec.action_type} orbit at t={t} has codimension "
            f"{frame.normal.dim}",
            codimension=frame.normal.dim,
        )
    n = frame.normal.basis[0]
    if inner_g(n, spec.section_generator) < 0:
        n = -n
    return n


def shape_operator(
    spec: ActionSpec,
    t: float,
    normal: np.ndarray,
    frame: OrbitFrame | None = None,
) -> np.ndarray:
    """Shape operator of the orbit through g(t) in the direction ``normal``.

    ``normal`` must be a unit vector of the ambient algebra orthogonal to
    the tangent space; this works at singular parameters too, one normal
    direction at a time.
    """
    if frame is None:
        frame = orbit_frame(spec, t)
    if abs(inner_g(normal, normal) - 1.0) > 1e-9:
        raise ValueError("normal vector is not unit length")
    outside = off_span(normal[None], spec.ambient.basis)
    if outside > 1e-9:
        raise ValueError(f"normal leaves the ambient algebra (residual {outside:.3e})")
    coords = _to_rows(normal[None])[0] @ spec.ambient_rows.T
    tangency = float(np.abs(frame.tangent_rows @ coords).max(initial=0.0))
    if tangency > 1e-9:
        raise ValueError(f"normal is not orthogonal to the tangent space ({tangency:.3e})")
    ad = _ad_matrix(spec.ambient.basis, coords)
    return _shapes(frame.tangent_rows @ ad, frame.lift_rows[None], [t])[0]


def is_austere(curvatures, tol: float = 1e-6) -> bool:
    """True when the multiset of (value, multiplicity) pairs is symmetric
    under negation of the values, pairing values within ``tol``."""
    expanded: list[float] = []
    for value, mult in curvatures:
        expanded.extend([float(value)] * int(mult))
    expanded.sort()
    n = len(expanded)
    return all(abs(expanded[i] + expanded[n - 1 - i]) <= tol for i in range(n))


@dataclass(frozen=True)
class SpectrumReport:
    """Curvature data of a principal orbit at one parameter."""

    t: float
    s: float
    orbit_dim: int
    shape: np.ndarray
    curvatures: tuple[tuple[float, int], ...]
    mean_curvature: float
    norm_sq: float
    austere: bool
    cluster_ambiguous: bool


def _shape_blocks(spec: ActionSpec, ts: np.ndarray):
    """The symmetrised shape operators at the principal parameters ``ts``
    (a 1-d array), as (slice of ``ts``, shapes) pairs over blocks of at
    most :data:`FRAME_BLOCK` parameters.

    Parameters within :data:`SINGULAR_GUARD` of a singular one are refused.
    The unit normal is the section generator xi and the tangent rows are the
    spec's fixed [K; W], both certified for every t when the spec is built,
    and the lifts come from :func:`_principal_lifts`, which certifies the
    tangent rank at each t (else :class:`SingularOrbitError`).  Per t stay
    only the checks that measure rounding: the lift residual and the
    symmetry defect (else :class:`ArithmeticError`).  At 1.01 SINGULAR_GUARD
    on either side of a singular parameter, the largest lift residual per
    type is 1.2e-10 (II) to 2.9e-10 (IV), against 1.6e-10 to 2.7e-10 from
    the SVD frames of :func:`_frames`, so the 1e-9 bound holds with a factor
    of 3.4 to spare; the rank certificate clears its threshold there by a
    factor of 159 (IV) to 389 (III).
    """
    near = np.min(np.abs(ts[:, None] - np.array(spec.singular_ts)), axis=1) < SINGULAR_GUARD
    if np.any(near):
        raise SingularOrbitError(
            f"type {spec.action_type}: t={ts[np.argmax(near)]} is within "
            f"{SINGULAR_GUARD} of a singular parameter",
            codimension=-1,
        )
    for start in range(0, len(ts), FRAME_BLOCK):
        block = slice(start, start + FRAME_BLOCK)
        lifts, _ = _principal_lifts(spec, ts[block])
        yield block, _shapes(spec.tangent_ad, lifts, ts[block])


def curvature_invariants(spec: ActionSpec, t) -> np.ndarray:
    """H and |A|^2 at a parameter or at each entry of an array of
    parameters, as the two rows of one (2, ...) array, from one walk over
    the shape operators."""
    ts = np.asarray(t, dtype=float)
    flat = ts.reshape(-1)
    values = np.empty((2, len(flat)))
    for block, shapes in _shape_blocks(spec, flat):
        values[0, block] = np.trace(shapes, axis1=1, axis2=2)
        values[1, block] = np.sum(shapes * shapes, axis=(1, 2))
    return values.reshape((2,) + ts.shape)


def mean_curvature(spec: ActionSpec, t):
    """Trace of the shape operator in the canonical unit normal, at a
    parameter or at each entry of an array of parameters."""
    h = curvature_invariants(spec, t)[0]
    return float(h) if h.ndim == 0 else h


def shape_norm_sq(spec: ActionSpec, t):
    """Squared Frobenius norm of the shape operator (sum of squared
    principal curvatures), at a parameter or at each entry of an array."""
    norm_sq = curvature_invariants(spec, t)[1]
    return float(norm_sq) if norm_sq.ndim == 0 else norm_sq


def _report(spec: ActionSpec, t: float, s: np.ndarray, cluster_tol: float) -> SpectrumReport:
    """The spectrum report of the shape operator ``s`` at ``t``."""
    clusters = sym_eigen(s, cluster_tol=cluster_tol)
    gaps = np.diff([v for v, _ in clusters])
    ambiguous = bool(np.any((gaps > cluster_tol) & (gaps < 10.0 * cluster_tol)))
    return SpectrumReport(
        t=float(t),
        s=float(t) / spec.section_ratio,
        orbit_dim=spec.ambient.dim - 1,
        shape=s,
        curvatures=tuple((float(v), int(m)) for v, m in clusters),
        mean_curvature=float(np.trace(s)),
        norm_sq=float(np.sum(s * s)),
        austere=is_austere(clusters, tol=cluster_tol),
        cluster_ambiguous=ambiguous,
    )


def spectrum_report(spec: ActionSpec, t: float, cluster_tol: float = 1e-6) -> SpectrumReport:
    """Full curvature report at a principal parameter.

    Eigenvalues within ``cluster_tol`` are merged; the report is flagged
    cluster-ambiguous when some gap between adjacent eigenvalues lies
    within a decade of the clustering tolerance.
    """
    return spectrum_reports(spec, [t], cluster_tol)[0]


def spectrum_reports(spec: ActionSpec, ts, cluster_tol: float = 1e-6) -> list[SpectrumReport]:
    """:func:`spectrum_report` at each parameter of ``ts``, with the shape
    operators built block by block of at most :data:`FRAME_BLOCK`
    parameters and each spectrum clustered on its own."""
    flat = np.asarray(ts, dtype=float).reshape(-1)
    return [
        _report(spec, t, s, cluster_tol)
        for block, shapes in _shape_blocks(spec, flat)
        for t, s in zip(flat[block], shapes)
    ]


def verify_reflection(spec: ActionSpec) -> bool:
    """Certify that the isometry phi(x) = a x^eps b of the type's record
    (see :mod:`g2orbits.actions`) reflects the orbit through
    x0 = g(minimal_t), which is then weakly reflective.

    Each of these defects must be at most :data:`REFLECTION_TOL`:

    1. a and b are orthogonal;
    2. phi fixes x0;
    3. phi permutes the orbits: Ad(a) maps h (eps = 1) or k (eps = -1)
       into h, and Ad(b^-1) maps k or h into k;
    4. dphi maps the ambient algebra into itself; on identity-translated
       vectors it is Ad(b^-1) (eps = 1) or -Ad(b^-1 x0) (eps = -1);
    5. dphi sends the unit normal xi to -xi and the tangent space at x0
       into xi^perp.
    """
    if spec.reflection is None:
        raise ValueError(
            f"no reflection isometry is configured for action type {spec.action_type}"
        )
    a, eps, b = spec.reflection(lambda t: expm(spec.geodesic_generator, t))
    x0 = _geodesic(spec, spec.minimal_t)
    (vt,), dim, _, _ = _frames(spec, np.array([spec.minimal_t]))
    h_source, k_source = (spec.h, spec.k) if eps == 1 else (spec.k, spec.h)
    c = b.T if eps == 1 else b.T @ x0  # dphi(u) = eps c u c^T
    images = eps * (c @ spec.ambient.basis @ c.T)
    moved = _to_rows(images) @ spec.ambient_rows.T  # rows: dphi(e_a)
    defects = (
        np.abs(np.stack([a @ a.T, b @ b.T]) - np.eye(8)).max(),
        np.abs(a @ (x0 if eps == 1 else x0.T) @ b - x0).max(),
        off_span(a @ h_source.basis @ a.T, spec.h.basis),
        off_span(b.T @ k_source.basis @ b, spec.k.basis),
        off_span(images, spec.ambient.basis),
        np.abs(spec.unit_section @ moved + spec.unit_section).max(),
        np.abs(vt[:dim] @ moved @ spec.unit_section).max(),
    )
    return bool(max(defects) <= REFLECTION_TOL)
