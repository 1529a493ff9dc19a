"""Reference forward pass of the quantum self-attention model.

Written from the model's definition, apart from the program: every gate is
an explicit 2**n x 2**n matrix built with ``np.kron`` (qubit 0 is the
leftmost factor, the most significant amplitude-index bit), pure states are
amplitude vectors and noisy states are density matrices that Kraus
operators act on.  It reads the model's parameter arrays and nothing else.
"""

from __future__ import annotations

import math

import numpy as np

I2 = np.eye(2, dtype=np.complex128)
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2.0)
P0 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
P1 = np.array([[0, 0], [0, 1]], dtype=np.complex128)
PAULI = {"X": X, "Y": Y, "Z": Z}


def rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def kron_all(factors) -> np.ndarray:
    out = np.ones((1, 1), dtype=np.complex128)
    for factor in factors:
        out = np.kron(out, factor)
    return out


def on_qubit(op: np.ndarray, qubit: int, n: int) -> np.ndarray:
    return kron_all(op if q == qubit else I2 for q in range(n))


def cnot(control: int, target: int, n: int) -> np.ndarray:
    keep = kron_all(P0 if q == control else I2 for q in range(n))
    flip = kron_all(P1 if q == control else X if q == target else I2 for q in range(n))
    return keep + flip


def ansatz_gates(angles, n: int, depth: int) -> list[np.ndarray]:
    """RX column, RY column, then depth x (CNOT ring q -> q+1, RY column)."""
    gates = [on_qubit(rx(angles[q]), q, n) for q in range(n)]
    gates += [on_qubit(ry(angles[n + q]), q, n) for q in range(n)]
    for block in range(depth):
        if n > 1:
            gates += [cnot(q, (q + 1) % n, n) for q in range(n)]
        gates += [on_qubit(ry(angles[(2 + block) * n + q]), q, n) for q in range(n)]
    return gates


def unitary(gates) -> np.ndarray:
    out = np.eye(gates[0].shape[0], dtype=np.complex128)
    for gate in gates:
        out = gate @ out
    return out


def observables(n: int, d: int) -> list[np.ndarray]:
    """Value-circuit observables: Z on each qubit, then X, then Y."""
    singles = [on_qubit(PAULI[letter], q, n) for letter in "ZXY" for q in range(n)]
    if d > len(singles):
        raise ValueError(f"oracle covers d <= 3n observables, got d={d}, n={n}")
    return singles[:d]


def depolarizing_kraus(p: float) -> list[np.ndarray]:
    return [math.sqrt(1.0 - p) * I2] + [math.sqrt(p / 3.0) * P for P in (X, Y, Z)]


def apply_channel(rho: np.ndarray, kraus, qubit: int, n: int) -> np.ndarray:
    ops = [on_qubit(k, qubit, n) for k in kraus]
    return sum(k @ rho @ k.conj().T for k in ops)


def expect_pure(psi: np.ndarray, obs: np.ndarray) -> float:
    return float(np.clip(np.real(psi.conj() @ obs @ psi), -1.0, 1.0))


def expect_dm(rho: np.ndarray, obs: np.ndarray) -> float:
    return float(np.clip(np.real(np.trace(obs @ rho)), -1.0, 1.0))


def _layer_expectations(xs, thetas, n, enc_depth, qkv_depth, obs_v, kraus):
    """Per word: <Z_1> after the query and key circuits, and the value vector."""
    plus = unitary([on_qubit(H, q, n) for q in range(n)])[:, 0]
    circuits = [unitary(ansatz_gates(theta, n, qkv_depth)) for theta in thetas]
    z1 = on_qubit(Z, 0, n)
    zq, zk, values = [], [], []
    for x in xs:
        psi = unitary(ansatz_gates(x, n, enc_depth)) @ plus
        if kraus is None:
            outs = [circuit @ psi for circuit in circuits]
            zq.append(expect_pure(outs[0], z1))
            zk.append(expect_pure(outs[1], z1))
            values.append([expect_pure(outs[2], obs) for obs in obs_v])
            continue
        rho = np.outer(psi, psi.conj())
        for q in range(n):
            rho = apply_channel(rho, kraus, q, n)
        outs = []
        for circuit in circuits:
            out = circuit @ rho @ circuit.conj().T
            for q in range(n):
                out = apply_channel(out, kraus, q, n)
            outs.append(out)
        zq.append(expect_dm(outs[0], z1))
        zk.append(expect_dm(outs[1], z1))
        values.append([expect_dm(outs[2], obs) for obs in obs_v])
    return np.array(zq), np.array(zk), np.array(values)


def forward(ids, model, noise_p: float = 0.0) -> tuple[float, list[np.ndarray]]:
    """(positive-class probability, per-layer attention matrices) of one sentence.

    ``noise_p`` > 0 puts a depolarizing channel on every qubit after each of
    the encoder, query, key and value circuits.
    """
    cfg = model.config
    n, d = cfg.n_qubits, cfg.embed_dim
    obs_v = observables(n, d)
    kraus = depolarizing_kraus(noise_p) if noise_p > 0.0 else None
    xs = np.array(model.embeddings.rows[list(ids)], dtype=np.float64)
    attentions = []
    for layer in model.layers:
        thetas = [layer.theta_q.values, layer.theta_k.values, layer.theta_v.values]
        zq, zk, values = _layer_expectations(
            xs, thetas, n, cfg.enc_depth, cfg.qkv_depth, obs_v, kraus
        )
        raw = np.exp(-((zq[:, None] - zk[None, :]) ** 2))
        alpha = raw / raw.sum(axis=1, keepdims=True)
        attentions.append(alpha)
        xs = xs + alpha @ values
    logit = float(model.head_w @ xs.mean(axis=0) + model.head_b[0])
    return 1.0 / (1.0 + math.exp(-logit)), attentions


def loss(batch, y_hats, model) -> float:
    """Half mean squared error plus the head and embedding L2 penalties."""
    cfg = model.config
    d = cfg.embed_dim
    errors = [(y - label) ** 2 for y, (_, label) in zip(y_hats, batch)]
    reg = cfg.lam / (2.0 * d) * float(model.head_w @ model.head_w)
    norms = [float(np.sum(model.embeddings.rows[list(ids)] ** 2)) for ids, _ in batch]
    reg += cfg.gamma / (2.0 * d) * float(np.mean(norms))
    return float(np.mean(errors)) / 2.0 + reg
