"""Subgroup decompositions in free products of finite groups.

Builds folded/saturated coset graphs for finitely generated subgroups,
extracts free-product decompositions (vertex-group pieces plus a free
part), refines them factor-wise with image-trivial representatives, and
verifies the resulting certificates independently.
"""

from .conjecture import (
    Bounds,
    CertificateRejected,
    ConjectureCertificate,
    FactorCertificate,
    ThetaNotSurjectiveOntoB,
    conjecture_decompose,
    system_hash,
)
from .covgraph import (
    CoreGraph,
    GraphNotComplete,
    IndexBoundExceeded,
    LambdaComponent,
    build_core,
    canonical_encoding,
    canonicalize,
    complete_graph,
    lambda_components,
    membership,
    to_dot,
)
from .fingroup import (
    FiniteGroup,
    GroupHom,
    cyclic,
    identity_hom,
    solve_preimage,
    subgroup_closure,
    sym,
    validate_group,
    validate_hom,
)
from .freeprod import (
    FactorSystem,
    Word,
    conjugate,
    format_word,
    invert,
    make_system,
    multiply,
    normalize,
    parse_word,
    theta_word,
)
from .higgins import HigginsDecomposition, ThetaTree, TreeBoundExceeded, build_theta_tree, higgins_decompose
from .kurosh import KuroshDecomposition, KuroshPiece, kurosh_decompose
from .verify import (
    MalformedCertificate,
    VerificationReport,
    verify_certificate,
)

__version__ = "0.1.0"
