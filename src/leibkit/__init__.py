"""Exact toolkit for right Leibniz algebras, Hu-Liu Leibniz algebras,
square-zero graded associative algebras, and linear xi-groups."""

from .algebras import (
    Algebra,
    BimoduleError,
    GradedAlgebra,
    dual_numbers,
    find_unit,
    make_block_upper,
    make_trivial_extension,
    matrix_algebra,
    upper_triangular_model,
    verify_associative,
    verify_special_grading,
)
from .derive import derive_huliu, derive_leibniz, verify_linear_embedding
from .huliu import (
    HuLiuAlgebra,
    annihilator_abelian_check,
    check_huliu_homomorphism,
    classify_huliu_simplicity,
    is_huliu_ideal,
    is_huliu_subalgebra,
    verify_huliu_identities,
    verify_lie,
)
from .leibniz import (
    LeibnizAlgebra,
    SimplicityVerdict,
    annihilator,
    check_leibniz_homomorphism,
    classify_simplicity,
    ideal_closure,
    is_ideal,
    verify_right_leibniz,
)
from .linalg import Matrix, Subspace, full_space, kernel, span
from .report import HomReport, Report, Witness
from .fuzz import generate_corpus, run_fuzz
from .io import SchemaError, load_file, save_file

__version__ = "0.1.0"

# The xi-group layer is the only one that needs numpy.  Its names are looked
# up on ``leibkit.xigroup`` at each access (PEP 562), so importing the
# package, and every exact command, leaves numpy unloaded until an xi-group
# name is first used.
_XIGROUP_NAMES = frozenset({
    "CurveReport", "LinearXiGroup", "MatrixRealization", "NoConstraints",
    "NotAUnitError", "OrthogonalConstraints", "SamplingError",
    "SpecialLinearConstraints", "TangentSpace", "UnipotentConstraints",
    "XiGroupReport", "check_xi_group", "constraint_family", "exp_curve_check",
    "expm", "invert_unit", "mat_square_zero_extension",
    "regular_realization", "tangent_space", "verify_group_closure",
    "verify_tangent_huliu", "xi",
})


def __getattr__(name):
    if name in _XIGROUP_NAMES:
        from . import xigroup
        return getattr(xigroup, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _XIGROUP_NAMES)
