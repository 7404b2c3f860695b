"""Verified computational engine for octonions, triality and the orbit
geometry of the cohomogeneity-one actions of SO(4) x SU(3) on G2 and of
G2 x G2, (SO(3) x SO(4)) x G2 and U(3) x G2 on SO(7).

``g2orbits.classify`` is the classification module; its function of the
same name is ``g2orbits.classify.classify``."""

__version__ = "0.1.0"

from .octonion import (
    FANO_LINES,
    basis_element,
    cayley_tables,
    oct_conj,
    oct_inner,
    oct_mul,
    oct_norm,
    as_octonion,
)
from .linalg import (
    NotASubspaceError,
    Subspace,
    V_BRACKET_RULES,
    ZETA_BRACKET_RULES,
    bracket,
    complement,
    expm,
    g_basis,
    inner_g,
    norm_g,
    orthonormalize,
    sym_eigen,
    v_elem,
    zeta,
)
from .triality import (
    SIGMA,
    NamedSubalgebra,
    SpinElement,
    alpha,
    beta,
    f_basis,
    gamma,
    is_automorphism,
    named_subalgebra,
    rp7_invariant,
    spin_lift_exp,
)
from .orbits import (
    ACTION_TYPES,
    ActionSpec,
    OrbitFrame,
    SingularOrbitError,
    SpectrumReport,
    action_spec,
    curvature_invariants,
    is_austere,
    mean_curvature,
    orbit_frame,
    shape_norm_sq,
    shape_operator,
    spectrum_report,
    spectrum_reports,
    unit_normal,
    verify_reflection,
)
from .classify import (
    ClassificationResult,
    NoRootError,
    RootDiagnostics,
    StructuralMismatchError,
    classify_type,
    closed_form_spectrum,
    compare_spectra,
    find_biharmonic,
    find_minimal,
)
