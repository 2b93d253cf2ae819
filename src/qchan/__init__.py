"""Quantum channels on the entropy plane.

Tools for the three standard representations of a quantum channel (Kraus,
superoperator, Choi), the Rényi entropies of the rescaled Choi spectrum
("map entropy") and of the normalized superoperator singular values
("receiver entropy"), the trade-off bounds that constrain the two, and
entanglement criteria for the associated Choi state.
"""

import types as _types

from .bounds import (
    CHECK_TOL,
    BoundRecord,
    BoundReport,
    applicable_bound_ids,
    evaluate_all,
    f_max,
    f_min,
    g_min,
    receiver_upper_value,
    record,
    reordered_entropy_bounds,
    sigma1_variational,
    spectral_entropy_bounds,
)
from .channels import (
    Channel,
    ChannelStack,
    ValidationError,
    check_state,
    choi_to_kraus,
    from_choi,
    from_environment,
    from_isometry,
    from_kraus,
    from_superoperator,
    remix_kraus,
)
from .entropy import (
    EntropyPoint,
    bloch_ellipsoid,
    check_probabilities,
    entropy_point,
    exchange_entropy,
    map_entropy,
    output_entropy,
    povm_entropy,
    receiver_entropy,
    renyi,
    spectrum_probabilities,
)
from .matcore import (
    hermitian_eigenvalues,
    identity_permutation,
    q_norm,
    random_permutation,
    reorder,
    reshuffle,
    reshuffle_permutation,
    singular_values,
)
from .separability import (
    SeparabilityVerdict,
    classify_region,
    classify_regions,
    partial_transpose,
    ppt_test,
    realignment_test,
    separable_criteria,
)
from .zoo import (
    coarse_graining,
    complete_contraction,
    depolarizing,
    depolarizing_curve_point,
    haar_isometry,
    haar_unitary,
    identity_channel,
    interval_channel,
    interval_channel_general,
    maximally_depolarizing,
    pauli_channel,
    random_bistochastic,
    random_cptp,
    random_cptp_stack,
    random_density,
    random_interval_channel,
    random_pauli_channel,
    random_pure_state,
    random_reshuffle_invariant,
    reshuffle_invariant,
    rng_stream,
    rng_substream,
    rng_substreams,
    spontaneous_emission,
)

__version__ = "0.1.0"

# Every name imported above is public.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
