"""Exact Poincare series of multi-index filtrations on curve germs."""

from .blowup import (
    DivisorialOracle,
    Modification,
    auto_resolve,
    run_script,
)
from .curves import Branch, Curve, valuation
from .errors import MotiveSeriesError
from .formulas import (
    TermIndex,
    curve_poincare_product,
    curve_series,
    divisorial_poincare_product,
    divisorial_poincare_product_edges,
    divisorial_series,
    enumerate_terms,
    hilbert_ie_series,
    semigroup_class_series,
    term_codimension,
)
from .graph import (
    DualGraph,
    IntersectionData,
    build_intersection,
    chi_bullet,
    chi_open,
    hoskin_deligne,
    w_of_nhat,
)
from .jets import (
    HilbertOracle,
    remark_identity_check,
    semigroup_members,
    series,
    subsystem_series,
)
from .laurent import LaurentPoly, projective_class, qgeom, sym_power_class
from .mseries import MSeries, expand_rational, first_mismatch, mseries_mul

__all__ = [
    "Branch",
    "Curve",
    "DivisorialOracle",
    "DualGraph",
    "HilbertOracle",
    "IntersectionData",
    "LaurentPoly",
    "MSeries",
    "Modification",
    "MotiveSeriesError",
    "TermIndex",
    "auto_resolve",
    "build_intersection",
    "chi_bullet",
    "chi_open",
    "curve_poincare_product",
    "curve_series",
    "divisorial_poincare_product",
    "divisorial_poincare_product_edges",
    "divisorial_series",
    "enumerate_terms",
    "expand_rational",
    "first_mismatch",
    "hilbert_ie_series",
    "hoskin_deligne",
    "mseries_mul",
    "projective_class",
    "qgeom",
    "remark_identity_check",
    "run_script",
    "semigroup_class_series",
    "semigroup_members",
    "series",
    "subsystem_series",
    "sym_power_class",
    "term_codimension",
    "valuation",
    "w_of_nhat",
]

__version__ = "0.1.0"
