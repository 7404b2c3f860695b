"""Shared helpers for the test suite."""

import dataclasses

import numpy as np

from g2orbits import orbits
from g2orbits.linalg import expm, norm_g
from g2orbits.triality import named_subalgebra, spin_lift_exp


#: Hand-written closed forms of the mean curvature H, independent of the
#: records' spectra, for the engine and the spectra to be checked against.
MEAN_CURVATURE = {
    "II": lambda t: (4 * np.tan(t) - 6 / np.tan(t)) / np.sqrt(6.0),
    "III": lambda t: -3 * np.sqrt(3.0) / np.tan(t),
    "IV": lambda t: -3 * np.sqrt(3.0) / np.tan(t),
    "V": lambda t: -np.sqrt(3.0) * (1 / np.tan(2 * t) + 2 / np.tan(t)),
}


def geodesic(spec, t):
    """g(t) = exp(tX) = I + sin t X + 2 sin^2(t/2) X^2 at each entry of ``t``,
    from the spec's generator X (X^3 = -X): the engine never forms g(t), so
    this closed form is the tests' oracle of the geodesic."""
    ts = np.asarray(t, dtype=float)[..., None, None]
    x = spec.geodesic_generator
    return np.eye(8) + np.sin(ts) * x + 2 * np.sin(ts / 2) ** 2 * (x @ x)


def spectrum_moments(record, t):
    """H and |A|^2 from the closed-form spectrum of ``record``: its first and
    second moments sum m v and sum m v^2, at t or at each entry of an array."""
    spectrum = record.spectrum(np.asarray(t, dtype=float))
    return sum(m * v for v, m in spectrum), sum(m * v * v for v, m in spectrum)


def replaced(monkeypatch, spec, **changes):
    """``dataclasses.replace(spec, **changes)``, where ``changes`` may also
    name the references ``minimal_t`` and ``biharmonic_t``, which a spec
    derives and ``replace`` refuses: :func:`g2orbits.orbits._references` is
    patched, for the rest of the test, to return them in place of its own."""
    moved = {name: changes.pop(name) for name in ("minimal_t", "biharmonic_t") if name in changes}
    if moved:
        derive = orbits._references

        def references(spec):
            minimal_t, biharmonic_t = derive(spec)
            return moved.get("minimal_t", minimal_t), moved.get("biharmonic_t", biharmonic_t)

        monkeypatch.setattr(orbits, "_references", references)
    return dataclasses.replace(spec, **changes)


def spy(monkeypatch, module, name, note=lambda *args, **kwargs: args):
    """Wrap ``module.name`` for the rest of the test so that each call first
    appends ``note(*args, **kwargs)`` to the returned list, then runs the
    original."""
    calls, original = [], getattr(module, name)

    def spied(*args, **kwargs):
        calls.append(note(*args, **kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spied)
    return calls


def random_skew(rng, scale=1.0):
    m = rng.normal(size=(8, 8)) * scale
    return m - m.T


def random_g2_matrix(rng):
    g2 = named_subalgebra("g2")
    coeffs = rng.normal(size=g2.dim)
    gen = np.einsum("i,iab->ab", coeffs, g2.basis)
    return gen / norm_g(gen)


def random_g2_group_element(rng):
    return expm(random_g2_matrix(rng), rng.uniform(0.0, np.pi))


def random_lifted_g2(rng):
    """The Spin(7) lift of a random G2 element exp(t X), |X| = 1."""
    return spin_lift_exp(random_g2_matrix(rng), float(rng.uniform(0.0, np.pi)))


def lift_generators(spec, x):
    """The 8x8 generators Ad(x)^{-1} h_p and -k_q of the lift equation
    Ad(x)^{-1} X - Y = u: the coefficients c of a lift satisfy
    sum_p c[p] generators[p] = u."""
    moved_h = np.einsum("ba,pbc,cd->pad", x, spec.h.basis, x)
    return np.concatenate([moved_h, -spec.k.basis])


def shape_oracle(spec, x, vectors, normal, coeffs=None):
    """Unsymmetrized S_ij = -1/2 <[vectors_i, Ad^{-1} X_j + Y_j], normal>
    in 8x8 matrices, independent of the engine's frame kernel.

    The lift coefficients (one column per vector, see
    :func:`lift_generators`) are least-squares solutions unless given,
    with one step of iterative refinement: within 1e-4 of a singular
    parameter the lift equation has a condition number near 1e4, and the
    refined lifts agree with extended-precision ones.  A lift that misses
    its vector by more than 1e-9 fails the assertion.
    """
    gens = lift_generators(spec, x)
    if coeffs is None:
        columns = gens.reshape(len(gens), -1).T
        rhs = vectors.reshape(len(vectors), -1).T
        coeffs = np.linalg.lstsq(columns, rhs, rcond=None)[0]
        coeffs += np.linalg.lstsq(columns, rhs - columns @ coeffs, rcond=None)[0]
    assert np.abs(np.einsum("pi,pab->iab", coeffs, gens) - vectors).max() < 1e-9
    nh = spec.h.dim
    plus = np.einsum("pi,pab->iab", coeffs[:nh], gens[:nh]) - np.einsum(
        "pi,pab->iab", coeffs[nh:], gens[nh:]
    )
    comm = plus @ normal - normal @ plus
    return 0.25 * np.einsum("iab,jba->ij", vectors, comm)
