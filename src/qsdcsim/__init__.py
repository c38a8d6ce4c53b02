"""qsdcsim: quantum-secure distributed control simulator for microgrids.

Simulates a network of qubits under a Hamiltonian-free Lindblad master
equation with swap and rotation-Z jump operators, extracts phase-consensus
signals via shot-based measurement, closes the loop around AC-frequency and
DC-voltage plant models, and quantifies what an interceptor can learn from
the exchanged qubits.
"""

__version__ = "0.1.0"

from .consensus import (
    MixingEvent,
    NodeState,
    ProtocolConfig,
    ProtocolState,
    ThetaConfig,
    Trajectory,
    bloch_rhs,
    convergence_rate,
    lyapunov,
    phase_rhs,
    qsdc_step,
    run_consensus,
)
from .engine import (
    BlochVector,
    DensityMatrix,
    IndexJumpSet,
    JumpSet,
    PureQubitSpec,
    bloch_of,
    build_jump_set,
    depolarize_local,
    evolve,
    lindblad_rhs,
    partial_trace_single,
    product_state,
    rz_jump,
    swap_jump,
)
from .measurement import (
    CountHistogram,
    EveReport,
    PhaseEstimate,
    estimate_phase_qdc,
    estimate_phase_qsdc,
    eve_intercept,
    exact_probability,
    sample_basis,
)
from .microgrid import (
    AcDer,
    AcNetwork,
    DcDer,
    DcNetwork,
    Event,
    TimeSeries,
    ac_power_flow,
    ac_step,
    dc_solve,
    dc_step,
    run_plant,
)
from .netgraph import (
    CommGraph,
    SpectralReport,
    build_graph,
    incidence_matrix,
    is_connected,
    lambda_min_sym,
    laplacian,
)
from .scenario import Scenario, parse_scenario, scenario_from_dict, serialize_scenario
