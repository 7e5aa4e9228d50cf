"""Exact lattice computations on reducible Kodaira curves.

Curve catalog, Euler pairings on the numerical Grothendieck lattice, root
systems, central-charge validity, spherical-twist reflections, and chamber
reduction, all over exact rationals.
"""

from .catalog import (
    CurveId,
    Family,
    FamilyInfo,
    KodairaCurve,
    build_curve,
    curve_from_label,
    gram_matrix,
    list_types,
    parse_curve_id,
)
from .chamber import (
    ChamberVerdict,
    NormalizedCharge,
    Position,
    ReductionStep,
    ReductionTrace,
    TorsionPairData,
    WallEvent,
    in_fundamental_chamber,
    jh_of_skyscraper,
    normalize,
    reduce_to_fundamental,
    torsion_pair_data,
    wall_crossings_on_segment,
)
from .charge import (
    CentralCharge,
    Component,
    MembershipReport,
    SupportForm,
    cycle_value,
    evaluate,
    is_stability_function,
    membership,
    min_root_modulus,
    min_root_modulus_witness,
    orientation_det,
    radical_independence,
    reference_charge,
    support_form,
    vanishing_root,
)
from .errors import (
    CornerOnPath,
    DegenerateCharge,
    DegenerateRadical,
    DimensionMismatch,
    EndpointOnWall,
    IndexOutOfRange,
    InvalidParams,
    KodlatError,
    NotARoot,
    NotGeneral,
    NotInP0,
    NotPlusComponent,
    OutputTooLarge,
    ParseError,
    StepLimitExceeded,
    VanishingRoot,
)
from .exact import QC, format_rational, parse_rational
from .kgroup import (
    KClass,
    RadicalBasis,
    is_effective,
    line_bundle_class,
    pair,
    radical_basis,
)
from .roots import (
    RootDecomposition,
    compose_root,
    decompose_root,
    enumerate_roots_in_box,
    fundamental_roots,
)
from .twist import TwistGenerator, TwistWord, apply_word, dual_reflect_charge, reflect_class

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
