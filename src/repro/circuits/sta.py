"""(Statistical) static timing analysis over netlists.

``critical_path`` computes nominal arrival times; ``monte_carlo_delay``
samples per-gate delay factors from the process-variation model (the same
model the architectural fault injector uses, Section 4.3) and returns the
critical-path delay distribution, whose mu and sigma feed the mu+2sigma
fault criterion.
"""

import numpy as np


def critical_path(netlist, library, factors=None):
    """Nominal (or factor-scaled) critical path.

    Returns ``(delay_ps, path_gate_indices)`` for the slowest input-to-
    output path. ``factors`` optionally gives a per-gate delay multiplier
    (e.g. one Monte-Carlo die sample).
    """
    arrival = [0.0] * netlist.n_nets
    pred = [None] * netlist.n_nets
    for gate in netlist.gates:
        worst_in = max(gate.inputs, key=lambda n: arrival[n])
        delay = library.gate_delay(gate.gtype)
        if factors is not None:
            delay *= factors[gate.index]
        arrival[gate.output] = arrival[worst_in] + delay
        pred[gate.output] = (gate.index, worst_in)
    if not netlist.outputs:
        raise ValueError("netlist has no outputs")
    end = max(netlist.outputs, key=lambda n: arrival[n])
    path = []
    node = end
    while pred[node] is not None:
        gate_index, prev = pred[node]
        path.append(gate_index)
        node = prev
    path.reverse()
    return arrival[end], path


def monte_carlo_delay(netlist, library, variation, n_samples=64):
    """Critical-path delay distribution under process variation.

    Returns ``(delays, mu, sigma)`` where ``delays`` is an array of
    per-die critical path delays in ps.
    """
    if n_samples <= 0:
        raise ValueError("need at least one sample")
    delays = np.empty(n_samples)
    for i in range(n_samples):
        sample = variation.sample_gate_factors(netlist.n_gates)
        delays[i], _ = critical_path(netlist, library, sample.factors)
    return delays, float(delays.mean()), float(delays.std())
