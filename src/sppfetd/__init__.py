"""2-D FETD simulator for TEz Maxwell with zero-thickness graphene interfaces."""

from .assembly import (OperatorSet, apply_pec, assemble_edge_load,
                       assemble_edge_mass, assemble_interface_mass,
                       assemble_mixed_curl, build_operator_set)
from .dynamics import (BlowUpError, CflConstants, EnergyReport, FieldState,
                       LeapfrogStepper, cfl_max_timestep, discrete_energy,
                       init_state, run_simulation)
from .elements import (CENTROID, DEGREE3, GAUSS2, QuadratureRule,
                       interpolate_hcurl, project_l2_p0)
from .harness import (ErrorTable, SimulationConfig, l2_errors, load_config,
                      run, run_convergence_study, scenario, write_energy_log,
                      write_snapshot)
from .mesh import (Arc, EdgeTag, Mesh, MeshError, Segment,
                   generate_rect_mesh, load_mesh, snap_interface)
from .physics import (KuboParams, ManufacturedCase, MaterialParams, SourceSpec,
                      damping_at_centroids, dipole_source_cells, eval_source,
                      kubo_sigma0)
from .sparse_solve import SolverError, factorize

__version__ = "0.1.0"
