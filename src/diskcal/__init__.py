"""Calabi invariants of area-preserving diffeomorphisms of the closed unit disk.

Three independent computations (action-function average, chord-winding double
integral, Hamiltonian time integral), rotation numbers with rigorous error
bars, continued-fraction diagnostics, and the rigidity experiments relating
them.  All angles are in turns; the area form is normalized to total mass 1.

The command line and the experiments reach the paper through the three routes
(``cal1``, ``cal2_tilde``, ``cal3_tilde``), ``verify_link``, the rotation
number and the map zoo.  A map is a ``MapBundle``, the isotopy from the
identity whose time-1 map it is: cal1 reads the map, cal2 and cal3 the
isotopy.  The chord winding ``chord_windings`` of a map is the angle function
of a pair and, on ``iterate(f, n)``, its sum along the orbit.
"""

from .arithmetic import (
    ContinuedFraction,
    best_approx_check,
    classify,
    continued_fraction,
    from_quotients,
    synthetic_non_bruno,
    synthetic_super_liouville,
)
from .calabi import (
    CalabiReport,
    Cal1Result,
    Cal2Result,
    PairSampler,
    c_mu_tilde,
    cal1,
    cal2_tilde,
    cal3_tilde,
    verify_link,
)
from .circle import (
    BoundaryMeasure,
    LiftedCircleMap,
    RotationNumberEstimate,
    boundary_displacement,
    invariant_measure,
    lift_from_isotopy,
    rotation_number,
)
from .errors import (
    BoundaryNotConstant,
    ConfigError,
    DiskcalError,
    NotAreaPreserving,
    PointOutsideDisk,
    QMaxExceeded,
    ScaleTooLarge,
    StepTooCoarse,
)
from .fields import HamiltonianField
from .flow import (
    ConcatIsotopy,
    ConjugatedIsotopy,
    FieldIsotopy,
    MapBundle,
    RadialIsotopy,
    area_residual,
    chord_windings,
)
from .geometry import liouville_eval
from .experiments import (
    ExperimentResult,
    exp_c0_discontinuity,
    exp_c1_continuity,
    exp_rigidity,
    sup_distance_to_identity,
)
from .zoo import (
    boundary_shear_conjugator,
    bump,
    compose,
    conjugate,
    conjugated_rotation,
    from_spec,
    identity,
    inverse,
    iterate,
    off_center_conjugator,
    quadratic_twist,
    radial_twist,
    rotation,
)

__version__ = "0.1.0"
