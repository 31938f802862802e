"""Lefschetz indices of geometric endomorphisms of Cuntz-Krieger algebras.

The package computes the Lefschetz index of the partial path map induced by
a geometric endomorphism of O_A by four independent routes (finite index
series, telescoped boundary count, closed polynomial formula, truncated
Fredholm count), the K-theory of O_A via Smith normal form together with the
induced K_0 map and zeta function, and provides an exact Z/2-graded linear
algebra harness verifying the abstract Lefschetz identity.

An endomorphism is held, validated and composed as lists of presentation
pairs (nu, mu), each the monomial s_nu s_mu* with coefficient 1; no
integer combinations of monomials are built.  ``parse_document`` and
``render_document`` load :mod:`cklef.cli` on first use.
"""

from .errors import CkError
from .sft_core import TransitionMatrix, validate_matrix, enumerate_paths, iter_paths, count_paths
from .endo import (
    GeometricEndomorphism,
    build_endomorphism,
    identity_endomorphism,
    compose,
    power,
    path_map,
    dot_apply,
    represent_at_depth,
)
from .index import (
    propagation,
    index_series,
    index_series_counted,
    series_end,
    stabilized_index,
    gamma,
    index_polynomial,
    fredholm_index_truncated,
)
from .ktheory import (
    smith_normal_form,
    k_groups,
    k0_reduce,
    induced_k0,
    lefschetz_number,
    zeta,
    zeta_coefficients,
    zeta_reconstruct,
)
from .graded import (
    GradedSpace,
    GradedMap,
    GradedPairing,
    graded_trace,
    graded_tensor_map,
    dual_basis,
    dual_fundamental_class,
    index_pairing,
    koszul_flip_check,
)

__version__ = "0.1.0"


def __getattr__(name):
    # the document functions load cli on first use, so that
    # ``python -m cklef.cli`` runs a module the package has not imported
    if name in ("parse_document", "render_document"):
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
