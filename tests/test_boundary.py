"""Every public entry point that takes dimension vectors rejects a negative
or fractional entry with ``InputError``, never ``InvariantError`` and never
an answer.  One row per entry point and vector argument: a new boundary is
covered by adding its row.

``rank_degree``, ``riemann_roch_check`` and ``isotropic_hull`` take K_0
classes, which may be negative, so they have no row here.
"""

from fractions import Fraction

import pytest

from quiverinv import canonical, generic, siweights, stability
from quiverinv.core import EulerMatrix, kronecker_quiver
from quiverinv.errors import InputError

EK2 = EulerMatrix(kronecker_quiver(2))
DOM = canonical.build_canonical((2, 2, 2), (1,))
D1 = (1, 1)
THETA = (1, -1)

# (entry point, vertex count, call taking the bad vector)
BOUNDARIES = [
    ("generic_subdims", 2, lambda v: generic.generic_subdims(EK2, v)),
    ("ext_generic a", 2, lambda v: generic.ext_generic(EK2, v, D1)),
    ("ext_generic b", 2, lambda v: generic.ext_generic(EK2, D1, v)),
    ("generic_hom_ext a", 2, lambda v: generic.generic_hom_ext(EK2, v, D1)),
    ("generic_hom_ext b", 2, lambda v: generic.generic_hom_ext(EK2, D1, v)),
    ("is_schur_root", 2, lambda v: generic.is_schur_root(EK2, v)),
    ("canonical_decomposition", 2, lambda v: generic.canonical_decomposition(EK2, v)),
    (
        "is_semistable_generic",
        2,
        lambda v: stability.is_semistable_generic(EK2, v, THETA),
    ),
    ("is_stable_generic", 2, lambda v: stability.is_stable_generic(EK2, v, THETA)),
    ("effective_cone", 2, lambda v: stability.effective_cone(EK2, v)),
    (
        "theta_stable_decomposition",
        2,
        lambda v: stability.theta_stable_decomposition(EK2, v, THETA),
    ),
    ("local_quiver", 2, lambda v: stability.local_quiver(EK2, [(v, 1)])),
    ("moduli_dimension", 2, lambda v: stability.moduli_dimension(EK2, v, THETA)),
    (
        "projective_space_verdict",
        2,
        lambda v: stability.projective_space_verdict(EK2, v, THETA, 3),
    ),
    (
        "rational_invariants_profile",
        2,
        lambda v: stability.rational_invariants_profile(EK2, v),
    ),
    ("si_dim", 2, lambda v: siweights.si_dim(EK2, v, THETA)),
    ("si_table", 2, lambda v: siweights.si_table(EK2, v, THETA, 3)),
    ("circ d", 2, lambda v: siweights.circ(EK2, v, D1)),
    ("circ e", 2, lambda v: siweights.circ(EK2, D1, v)),
    (
        "polynomiality_check d",
        2,
        lambda v: siweights.polynomiality_check(EK2, v, D1, 3),
    ),
    (
        "polynomiality_check e",
        2,
        lambda v: siweights.polynomiality_check(EK2, D1, v, 3),
    ),
    ("kronecker_pair on a quiver", 2, lambda v: canonical.kronecker_pair(EK2, v)),
    ("kronecker_pair", 5, lambda v: canonical.kronecker_pair(DOM, v)),
    (
        "rational_invariants_canonical",
        5,
        lambda v: canonical.rational_invariants_canonical(DOM, v),
    ),
    (
        "rational_invariants_canonical decomposition",
        5,
        lambda v: canonical.rational_invariants_canonical(DOM, DOM.h(), [(v, 1)]),
    ),
]

BAD = {
    "negative": lambda n: (-1,) * n,
    "mixed": lambda n: (2,) + (-1,) * (n - 1),
    "fractional": lambda n: (Fraction(1, 2),) + (1,) * (n - 1),
}


@pytest.mark.parametrize("kind", sorted(BAD))
@pytest.mark.parametrize(
    "n, call", [row[1:] for row in BOUNDARIES], ids=[row[0] for row in BOUNDARIES]
)
def test_bad_dimension_vector_is_an_input_error(n, call, kind):
    with pytest.raises(InputError):
        call(BAD[kind](n))
