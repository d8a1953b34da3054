"""elliptop: elliptic integrable tops and their verification toolkit."""

__version__ = "0.1.0"

from .elliptic import (EllipticError, EllipticParams, NonFiniteArgumentError,
                       PoleProximityError, ThetaConstants, ThetaOverflowError,
                       ThetaTruncationError, eisenstein_E1, eisenstein_E2,
                       kronecker_f, kronecker_phi, theta, theta_derivatives,
                       weierstrass_p)
from .torus import (T, build_Lambda, build_Q, decompose, kappa, pair_sum,
                    reconstruct, t_stack)
from .fourier import (DressedFnParams, IdentitySpec, UnknownIdentityError,
                      VerificationReport, f_alpha, ft_coeffs, phi_alpha,
                      phi_big, registry_ids, verify_identity)
from .models import (CoupledTop, GaudinLatticeTop, MatrixTop, NonRelativisticTop,
                     RelativisticTop, check_relativization, gaudin_reduce,
                     lax_residual, make_model)
from .dynamics import (IntegratorConfig, Trajectory, convergence_order, integrate,
                       rk4_step)

__all__ = [name for name in dir() if not name.startswith("_")]
