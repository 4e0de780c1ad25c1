"""Dense-dimension budget shared by every module that materializes 2^n x 2^n."""

import os

from .errors import DenseLimitError

DENSE_QUBIT_DEFAULT = 12


def dense_qubit_limit():
    """Largest qubit count allowed for dense work (env override wins)."""
    raw = os.environ.get("COLLIDESIM_DENSE_LIMIT")
    if raw is None:
        return DENSE_QUBIT_DEFAULT
    limit = int(raw)
    if limit < 1:
        raise ValueError(f"COLLIDESIM_DENSE_LIMIT must be >= 1, got {limit}")
    return limit


def check_dense(n_qubits):
    """Raise if an n-qubit dense object would blow the budget."""
    limit = dense_qubit_limit()
    if n_qubits > limit:
        raise DenseLimitError(
            f"dense request for {n_qubits} qubits exceeds the limit of {limit} "
            f"(set COLLIDESIM_DENSE_LIMIT to raise it)"
        )


def check_entries(entries, what):
    """Raise if an object storing `entries` entries would not fit in one dense
    matrix at the qubit limit (4^limit entries)."""
    limit = dense_qubit_limit()
    if entries > 4**limit:
        raise DenseLimitError(
            f"{what} stores up to {entries} entries, more than the {4**limit} of a dense "
            f"{limit}-qubit matrix (set COLLIDESIM_DENSE_LIMIT to raise it)"
        )
