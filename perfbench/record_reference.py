"""Record the success probabilities the evolve and sweep checks compare against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Runs `optimal_schedule` + `evolve` once for every evolve configuration
and every success-estimate pair (which cover the sweep ops and both CLI
legs) with the all-zeros marked state, and rewrites reference.json.
Re-record only when a change is meant to move these values, and say so.
"""

import json

import adiasearch as a

from workloads import REFERENCE_FILE, config_key, evolve_configs, success_estimate_pairs


def main():
    values = {}
    for n, parts, eps in evolve_configs("evolve") + success_estimate_pairs():
        splitting = a.make_splitting(n, parts)
        precision = a.Precision(epsilon=eps)
        schedule_t = a.optimal_schedule(splitting, precision)
        report = a.evolve(splitting, a.MarkedState.zeros(n), schedule_t, precision)
        values[config_key(n, parts, eps)] = report.success_probability
    REFERENCE_FILE.write_text(json.dumps({"success_probability": values}, indent=1) + "\n")


if __name__ == "__main__":
    main()
