"""ellstat: local invariants and height-ordered statistics of elliptic curves over Q."""

__version__ = "0.1.0"

from .arith import InputError
from .curves import (
    HeightKey,
    Invariants,
    NonIntegralTransformError,
    SingularCurveError,
    WeierstrassModel,
    compute_invariants,
    curve_from_j,
    format_rational,
    height_compare,
    height_key,
    height_lt,
    height_sort_key,
    j_invariant,
    parse_rational,
    quadratic_twist,
    transform,
    zywina_j2,
)
from .kodaira import KodairaType, parse_kodaira
from .localdata import (
    LocalData,
    LocalTorsionRank,
    PrimeScanReport,
    bad_primes,
    compute_I_p,
    conductor,
    local_minimal_model,
    local_torsion_rank_mult,
    prime_scan,
    tamagawa_p_divisible,
    tate,
)
from .finitefield import (
    BadReductionError,
    CensusResult,
    ReducedCurve,
    census_torsion_classes,
    d_count,
    group_order,
    is_anomalous,
    reduce_model,
)
from .quadforms import (
    BinaryQuadraticForm,
    FormClassSet,
    apply_sl2,
    hurwitz_class_number,
    reduce_form,
)
from .density import (
    CertifiedValue,
    DensityBoundReport,
    corollary_gap_check,
    delaunay_mass,
    density_report,
    frak_d_p,
    frak_d_p_prime,
    main_bound,
    product_density,
    ps_bounds,
    rho,
    rho_M,
    sp_doubleprime_density,
    zeta_minus_one,
)
from .harness import (
    ClassificationFlags,
    EmpiricalReport,
    SampleSpec,
    classify,
    estimate,
    kodaira_frequency,
    sample_tuple,
)
