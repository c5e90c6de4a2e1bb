"""Independent reference results for the benchmark's correctness checks.

Every batch result is compared against :class:`repro.Simulator`, the
single-node gate-by-gate state-vector simulator, which shares no code
with the scheduler, the plan compiler or the distributed engine.  A
23-qubit reference takes ~14 s on a 2-core host, too long to compute
inside a run, so the references of each workload's fixed circuit corpus
are computed once and kept here as small digests in ``references.json``:
the amplitudes at a few fixed indices, the output entropy and the norm.

Regenerate the digests (about two minutes) after a change to the
circuit generator or the workload table::

    PYTHONPATH=src python3 e2ebench/references.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

DIGEST_FILE = Path(__file__).resolve().parent / "references.json"

#: Amplitudes compared per circuit (plus index 0).
NUM_CHECKED_AMPLITUDES = 8


def checked_indices(num_qubits: int) -> list[int]:
    """The fixed amplitude indices compared for an *num_qubits* state."""
    rng = np.random.default_rng(num_qubits)
    picked = rng.choice(1 << num_qubits, NUM_CHECKED_AMPLITUDES, replace=False)
    return sorted({0, *(int(i) for i in picked)})


def compute_digest(num_qubits: int, depth: int, circuit_seed: int) -> dict:
    """Digest of the reference state of one supremacy circuit."""
    from repro import Simulator, generate_supremacy_circuit
    from repro.analysis import shannon_entropy

    circuit = generate_supremacy_circuit(num_qubits, depth, seed=circuit_seed)
    state = Simulator(num_qubits).run(circuit).state
    data = state.data
    return {
        "amplitudes": {
            str(i): [float(data[i].real), float(data[i].imag)]
            for i in checked_indices(num_qubits)
        },
        "entropy": shannon_entropy(np.abs(data) ** 2),
        "norm": float(np.vdot(data, data).real),
    }


def load_digests() -> dict:
    """``{workload: {"qubits", "depth", "circuits": {seed: digest}}}``."""
    return json.loads(DIGEST_FILE.read_text())


def check_state(data, entropy: float, counts: dict, shots: int, digest: dict):
    """Compare one read-out against its reference digest.

    Returns ``None`` when the result is correct, else a one-line reason.
    """
    norm = float(np.vdot(data, data).real)
    if abs(norm - digest["norm"]) > 1e-9:
        return f"norm {norm!r} != reference {digest['norm']!r}"
    for index, (re, im) in digest["amplitudes"].items():
        got = complex(data[int(index)])
        want = complex(re, im)
        if abs(got - want) > 1e-10 + 1e-7 * abs(want):
            return f"amplitude[{index}] {got!r} != reference {want!r}"
    if abs(entropy - digest["entropy"]) > 1e-8:
        return f"entropy {entropy!r} != reference {digest['entropy']!r}"
    if sum(counts.values()) != shots:
        return f"{sum(counts.values())} samples, expected {shots}"
    if any(not 0 <= outcome < len(data) for outcome in counts):
        return "sampled outcome out of range"
    return None


def main() -> int:
    from workloads import BATCH_WORKLOADS

    digests = {}
    for workload in BATCH_WORKLOADS.values():
        circuits = {}
        for seed in workload.corpus_seeds():
            circuits[str(seed)] = compute_digest(
                workload.qubits, workload.depth, seed
            )
            print(f"{workload.name}: circuit {seed} done", flush=True)
        digests[workload.name] = {
            "qubits": workload.qubits,
            "depth": workload.depth,
            "circuits": circuits,
        }
    DIGEST_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGEST_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
