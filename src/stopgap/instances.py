"""Benchmark problem families: the deterministic 1D program, Gaussian and
Toeplitz-covariance least squares, distributed least squares in consensus
form, nonnegative quadratic programming via variable splitting, and basis
pursuit.

All random generation is seeded through numpy Generators so instances are
reproducible byte for byte.
"""

import math
import os
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateProblemError, check_count
from .linalg import pinv_solve, stationarity_matrix
from .objectives import L1Norm, LeastSquaresObjective, NonnegativeQuadratic
from .problem import AffineConstraint, ProblemInstance, ReferenceSolution

DO_BLOCKS = 3  # data blocks M of the distributed family


def _rng(seed, **sizes):
    """The generator of ``seed``, once the seed and every size are checked."""
    for name, value in sizes.items():
        check_count(name, value)
    check_count("seed", seed, least=0)
    return np.random.default_rng(seed)


def _ls_instance(Q, c, A, b, label):
    """Linearly-constrained LS instance with the reference saddle point of
    its stationarity system [[Q^T Q, A^T], [A, 0]] [x; y] = [Q^T c; b], read
    from the objective's cached Q^T Q and Q^T c; no reference when the solve
    does not satisfy that system."""
    obj, con = LeastSquaresObjective(Q, c), AffineConstraint(A, b)
    M = stationarity_matrix(obj.gram, A)
    rhs = np.concatenate([obj.qtc, b])
    sol = pinv_solve(M, rhs)
    x_star = sol[:con.n]
    feas = np.linalg.norm(A @ x_star - b)
    stat = np.linalg.norm(M @ sol - rhs)
    reference = None
    if not (feas > 1e-8 * (1.0 + np.linalg.norm(b)) or stat > 1e-6 * (1.0 + np.linalg.norm(rhs))):
        f_star = 0.5 * float(np.linalg.norm(Q @ x_star - c) ** 2)
        reference = ReferenceSolution(x_star=x_star, f_star=f_star, y_star=sol[con.n:])
    return ProblemInstance(objective=obj, constraint=con, reference=reference, label=label)


def make_1d():
    """min 0.5*(x/9 - 2)^2 subject to 9x = 7; the feasibility condition
    pins x* = 7/9."""
    Q = np.array([[1.0 / 9.0]])
    c = np.array([2.0])
    A = np.array([[9.0]])
    b = np.array([7.0])
    x_star = np.array([7.0 / 9.0])
    f_star = 0.5 * float((x_star[0] / 9.0 - 2.0) ** 2)
    # stationarity Q^T(Q x* - c) + A^T y* = 0 gives the matching dual
    y_star = np.array([-(x_star[0] / 81.0 - 2.0 / 9.0) / 9.0])
    return ProblemInstance(
        objective=LeastSquaresObjective(Q, c),
        constraint=AffineConstraint(A, b),
        reference=ReferenceSolution(x_star=x_star, f_star=f_star, y_star=y_star), label="1d")


def make_iidg(n=20, m=10, seed=7):
    """LC-LS with i.i.d. standard-normal Q, A (m x n) and c, b (m,)."""
    rng = _rng(seed, n=n, m=m)
    Q = rng.standard_normal((m, n))
    c = rng.standard_normal(m)
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    return _ls_instance(Q, c, A, b, f"iidg(n={n},m={m},seed={seed})")


def toeplitz_covariance(first_row):
    """Symmetric Toeplitz matrix from its first row (constant diagonals)."""
    first_row = np.asarray(first_row, dtype=float)
    if first_row.ndim != 1:
        raise ConfigError("covariance factory expects a 1-D first row")
    k = first_row.shape[0]
    return first_row[np.abs(np.subtract.outer(np.arange(k), np.arange(k)))]


def make_ntc(n=20, m=10, seed=7):
    """LC-LS with Q = Sigma X_q and A = Sigma X_a, where Sigma is the m x m
    symmetric Toeplitz covariance with first row 1, rho, rho^2, ... at
    rho = 0.5 (a Kac-Murdock-Szego matrix, eigenvalues in [1/3, 3])."""
    rng = _rng(seed, n=n, m=m)
    S = toeplitz_covariance(0.5 ** np.arange(m))
    Q = S @ rng.standard_normal((m, n))
    c = rng.standard_normal(m)
    A = S @ rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    return _ls_instance(Q, c, A, b, f"ntc(n={n},m={m},seed={seed},rho=0.5)")


def read_libsvm(path):
    """LIBSVM regression format: 'label idx:val idx:val ...', 1-based
    indices, missing entries zero.  Returns (features, labels)."""
    if not isinstance(path, (str, os.PathLike)):
        # open() would take an integer as a file descriptor, and close it
        raise ConfigError(f"data_path must be a str or os.PathLike, got {path!r}")
    rows = []
    labels = []
    width = 0
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read LIBSVM file ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: cannot read LIBSVM file (not {exc.encoding} text "
                          f"at byte {exc.start})") from exc
    for ln, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts:
            continue
        try:
            labels.append(float(parts[0]))
            entries = []
            for tok in parts[1:]:
                idx, val = tok.split(":")
                entries.append((int(idx), float(val)))
        except ValueError as exc:
            raise ConfigError(f"{path}:{ln}: malformed LIBSVM entry ({exc})") from exc
        if not all(math.isfinite(v) for v in [labels[-1]] + [v for _, v in entries]):
            raise ConfigError(f"{path}:{ln}: non-finite value")
        for idx, _ in entries:
            if idx < 1:
                raise ConfigError(f"{path}:{ln}: indices are 1-based")
            width = max(width, idx)
        rows.append(entries)
    X = np.zeros((len(rows), width))
    for i, entries in enumerate(rows):
        for idx, val in entries:
            X[i, idx - 1] = val
    return X, np.asarray(labels)


def make_do(data_path=None, n=14, m=84, seed=0):
    """Distributed least squares: M = DO_BLOCKS data blocks coupled by a
    consensus chain x_i = x_{i+1}.

    Block data comes from the LIBSVM regression file ``data_path`` when it
    is given; otherwise a synthetic Gaussian stand-in of the same shape is
    generated.  The reference solves the aggregated normal equations
    (sum Q_i^T Q_i) x = sum Q_i^T c_i and is replicated across blocks.
    """
    M = DO_BLOCKS
    if data_path is not None:
        X, yv = read_libsvm(data_path)
        if X.shape[0] < M:
            raise ConfigError(f"{data_path}: too few data rows ({X.shape[0]}) for {M} blocks")
        n = X.shape[1]
        m = X.shape[0] // M
        if X.shape[0] % M:
            warnings.warn(f"dropping {X.shape[0] % M} trailing rows so that "
                          f"{X.shape[0]} points split into {M} blocks")
        blocks = [(X[i * m:(i + 1) * m], yv[i * m:(i + 1) * m]) for i in range(M)]
        label = f"do(libsvm,M={M})"
    else:
        rng = _rng(seed, n=n, m=m)
        blocks = [(rng.standard_normal((m, n)), rng.standard_normal(m)) for _ in range(M)]
        label = f"do(synthetic,M={M},n={n},m={m},seed={seed})"

    Qs = [B[0] for B in blocks]
    cs = [B[1] for B in blocks]
    bigQ = np.zeros((M * m, M * n))
    for i, Qi in enumerate(Qs):
        bigQ[i * m:(i + 1) * m, i * n:(i + 1) * n] = Qi
    bigc = np.concatenate(cs)
    A = np.zeros(((M - 1) * n, M * n))
    eye = np.eye(n)
    for i in range(M - 1):
        A[i * n:(i + 1) * n, i * n:(i + 1) * n] = eye
        A[i * n:(i + 1) * n, (i + 1) * n:(i + 2) * n] = -eye
    b = np.zeros((M - 1) * n)

    gram = sum(Qi.T @ Qi for Qi in Qs)
    rhs = sum(Qi.T @ ci for Qi, ci in zip(Qs, cs))
    x_hat = pinv_solve(gram, rhs)
    if np.linalg.norm(gram @ x_hat - rhs) > 1e-9 * (1.0 + np.linalg.norm(rhs)):
        raise DegenerateProblemError("aggregated normal equations are inconsistent")
    X_star = np.tile(x_hat, M)
    f_star = 0.5 * float(np.linalg.norm(bigQ @ X_star - bigc) ** 2)
    y_star = pinv_solve(A.T, -(bigQ.T @ (bigQ @ X_star - bigc)))
    return ProblemInstance(
        objective=LeastSquaresObjective(bigQ, bigc),
        constraint=AffineConstraint(A, b),
        reference=ReferenceSolution(x_star=X_star, f_star=f_star, y_star=y_star), label=label)


def make_pqp(n=20, m=10, seed=8):
    """Nonnegative LS via splitting: variables X = (x, xt), constraint
    [[A, 0], [Id, -Id]] X = (b, 0), objective LS(x) + indicator(xt >= 0)."""
    rng = _rng(seed, n=n, m=m)
    Q = rng.standard_normal((m, n))
    c = rng.standard_normal(m)
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    At = np.block([[A, np.zeros((m, n))], [np.eye(n), -np.eye(n)]])
    B = np.concatenate([b, np.zeros(n)])
    return ProblemInstance(
        objective=NonnegativeQuadratic(Q, c),
        constraint=AffineConstraint(At, B),
        reference=None, label=f"pqp(n={n},m={m},seed={seed})")


def make_bp(n=20, m=10, seed=5):
    """Basis pursuit: min ||x||_1 subject to Ax = b, Gaussian data."""
    rng = _rng(seed, n=n, m=m)
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    return ProblemInstance(
        objective=L1Norm(n),
        constraint=AffineConstraint(A, b),
        reference=None, label=f"bp(n={n},m={m},seed={seed})")


@dataclass(frozen=True)
class Family:
    """One family: its factory, whose signature holds the paper seed and the sizes, the
    ExperimentConfig fields it reads, its PDHG ordering, and whether it builds a reference."""

    factory: Callable
    reads: tuple
    version: int
    reference: bool


# pqp needs version 2 to keep its slack block nonnegative; bp's KKT stalls under version 1
FAMILIES = {
    "1d": Family(make_1d, (), version=1, reference=True),
    "iidg": Family(make_iidg, ("seed", "n", "m"), version=1, reference=True),
    "ntc": Family(make_ntc, ("seed", "n", "m"), version=1, reference=True),
    "do": Family(make_do, ("seed", "data_path"), version=1, reference=True),
    "pqp": Family(make_pqp, ("seed", "n", "m"), version=2, reference=False),
    "bp": Family(make_bp, ("seed", "n", "m"), version=1, reference=False),
}


def family(name):
    """The Family of ``name``; unknown names raise ConfigError."""
    if name not in FAMILIES:
        raise ConfigError(f"unknown instance family {name!r}; choose from {sorted(FAMILIES)}")
    return FAMILIES[name]


def readers(field):
    """The families whose factory reads the ExperimentConfig ``field``."""
    return [name for name, fam in FAMILIES.items() if field in fam.reads]

