"""Convex relaxation of the allocation problem — paper Problem 6 (§4.2).

Replace the step objective ``I[ess ≥ minSS]`` with the hinge
``min(1, ess/minSS)`` and relax sizes to reals; the problem becomes
convex.  The paper suggests (sub)gradient descent; because the hinge of
a linear function is piecewise-linear, the relaxation is in fact a
*linear program*, which we also solve exactly with ``scipy``'s HiGHS —
the LP optimum is the yardstick the subgradient solver is tested
against, and the quality gap of hinge-vs-step is measured by the
allocation ablation benchmark.  ``scipy.optimize`` (~0.5 s) is imported
inside :func:`solve_lp`, its only user; no serving request reaches it.

Unlike the DP (which assumes leaf-and-parent contributions only), the
convex form supports a general selectivity matrix: ``ess(ℓ) = Σ_r
S(r, ℓ)·n_r``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import AllocationError
from repro.sampling.allocation import GroupSpec

__all__ = [
    "ConvexProblem",
    "ConvexResult",
    "problem_from_groups",
    "hinge_objective",
    "step_objective",
    "solve_lp",
    "solve_subgradient",
    "project_capped_simplex",
]


@dataclass(frozen=True)
class ConvexProblem:
    """Problem 6 data: nodes, leaves, probabilities and selectivities.

    ``selectivity[i, j]`` is ``S(node_i, leaf_j)``; a leaf's own sample
    appears as a node with selectivity 1 to itself.
    """

    node_names: tuple[str, ...]
    leaf_names: tuple[str, ...]
    probabilities: np.ndarray
    selectivity: np.ndarray
    memory: float
    min_sample_size: float

    def __post_init__(self) -> None:
        n, l = len(self.node_names), len(self.leaf_names)
        if self.probabilities.shape != (l,):
            raise AllocationError("probabilities must have one entry per leaf")
        if self.selectivity.shape != (n, l):
            raise AllocationError("selectivity must be (n_nodes, n_leaves)")
        if self.memory < 0 or self.min_sample_size <= 0:
            raise AllocationError("memory must be >= 0 and min_sample_size > 0")


@dataclass(frozen=True)
class ConvexResult:
    """Solver output: real-valued sizes and the hinge objective."""

    sizes: dict[str, float]
    objective: float

    def rounded_sizes(self) -> dict[str, int]:
        """Integer sizes (ceil), the paper's post-hoc rounding.

        Rounding up adds at most ``|U|`` tuples, negligible next to
        ``M`` (§4.2).
        """
        return {name: int(np.ceil(size)) for name, size in self.sizes.items() if size > 1e-9}


def problem_from_groups(
    groups: Sequence[GroupSpec], memory: float, min_sample_size: float
) -> ConvexProblem:
    """Build the convex form from the DP's tree-model groups."""
    node_names: list[str] = []
    leaf_names: list[str] = []
    probs: list[float] = []
    for group in groups:
        if group.parent not in node_names:
            node_names.append(group.parent)
        for leaf in group.leaves:
            if leaf.name in leaf_names:
                raise AllocationError(f"leaf {leaf.name!r} appears in two groups")
            leaf_names.append(leaf.name)
            probs.append(leaf.probability)
            if leaf.name not in node_names:
                node_names.append(leaf.name)
    sel = np.zeros((len(node_names), len(leaf_names)))
    node_pos = {n: i for i, n in enumerate(node_names)}
    leaf_pos = {n: j for j, n in enumerate(leaf_names)}
    for group in groups:
        for leaf in group.leaves:
            sel[node_pos[group.parent], leaf_pos[leaf.name]] = leaf.selectivity
            sel[node_pos[leaf.name], leaf_pos[leaf.name]] = 1.0
    return ConvexProblem(
        node_names=tuple(node_names),
        leaf_names=tuple(leaf_names),
        probabilities=np.asarray(probs, dtype=np.float64),
        selectivity=sel,
        memory=float(memory),
        min_sample_size=float(min_sample_size),
    )


def hinge_objective(problem: ConvexProblem, sizes: np.ndarray) -> float:
    """``Σ_ℓ p_ℓ · min(1, ess(ℓ)/minSS)`` for node sizes ``sizes``."""
    ess = sizes @ problem.selectivity
    return float(np.sum(problem.probabilities * np.minimum(1.0, ess / problem.min_sample_size)))


def step_objective(problem: ConvexProblem, sizes: np.ndarray) -> float:
    """The original Problem 5 objective ``Σ p_ℓ · I[ess(ℓ) ≥ minSS]``."""
    ess = sizes @ problem.selectivity
    return float(np.sum(problem.probabilities * (ess >= problem.min_sample_size - 1e-9)))


def solve_lp(problem: ConvexProblem) -> ConvexResult:
    """Exact hinge optimum as a linear program (HiGHS).

    Variables ``[n_1..n_N, z_1..z_L]`` with ``z_ℓ ≤ 1``,
    ``z_ℓ ≤ ess(ℓ)/minSS``, ``Σ n ≤ M``; maximise ``Σ p_ℓ z_ℓ``.
    """
    from scipy import optimize  # deferred: see module docstring

    n, l = len(problem.node_names), len(problem.leaf_names)
    c = np.concatenate([np.zeros(n), -problem.probabilities])
    # z_l - ess(l)/minSS <= 0  →  -S^T/minSS · n + I·z ≤ 0
    a_hinge = np.hstack([-problem.selectivity.T / problem.min_sample_size, np.eye(l)])
    a_mem = np.concatenate([np.ones(n), np.zeros(l)])[None, :]
    a_ub = np.vstack([a_hinge, a_mem])
    b_ub = np.concatenate([np.zeros(l), [problem.memory]])
    bounds = [(0.0, None)] * n + [(0.0, 1.0)] * l
    res = optimize.linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:  # pragma: no cover - HiGHS handles all feasible inputs
        raise AllocationError(f"LP solver failed: {res.message}")
    sizes = res.x[:n]
    return ConvexResult(
        sizes={name: float(s) for name, s in zip(problem.node_names, sizes)},
        objective=hinge_objective(problem, sizes),
    )


def project_capped_simplex(x: np.ndarray, cap: float) -> np.ndarray:
    """Euclidean projection of ``x`` onto ``{y ≥ 0, Σy ≤ cap}``.

    Clip negatives; if the positive mass still exceeds ``cap``, shift
    by the water-filling threshold ``τ`` with ``Σ max(x−τ, 0) = cap``
    (standard sort-based simplex projection).
    """
    if cap < 0:
        raise AllocationError("cap must be >= 0")
    y = np.maximum(x, 0.0)
    total = y.sum()
    if total <= cap:
        return y
    if cap == 0.0:
        return np.zeros_like(y)
    # Find τ via the sorted cumulative-sum characterisation.
    u = np.sort(y)[::-1]
    cumulative = np.cumsum(u)
    ks = np.arange(1, u.size + 1)
    candidates = (cumulative - cap) / ks
    valid = np.nonzero(u - candidates > 0)[0]
    # An empty valid set only happens when cap underflows against the
    # largest coordinate; the projection is then (numerically) zero.
    rho = int(valid[-1]) if valid.size else 0
    tau = candidates[rho]
    return np.maximum(y - tau, 0.0)


def solve_subgradient(
    problem: ConvexProblem,
    *,
    iterations: int = 500,
    step_scale: float | None = None,
) -> ConvexResult:
    """Projected subgradient ascent on the hinge objective (§4.2).

    Starts from all-zero sizes as the paper suggests.  Steps are
    *normalised* subgradients with a ``M/√t`` decay — the feasible
    region's diameter is of order ``M``, so unnormalised steps (whose
    magnitude is ``~p·S/minSS``, many orders smaller) would barely
    move.  The best iterate is returned (subgradient ascent is not
    monotone).
    """
    n = len(problem.node_names)
    sizes = np.zeros(n)
    best = sizes.copy()
    best_value = hinge_objective(problem, sizes)
    scale = step_scale if step_scale is not None else problem.memory
    for t in range(1, iterations + 1):
        ess = sizes @ problem.selectivity
        active = ess < problem.min_sample_size  # hinge not saturated
        grad = problem.selectivity @ (
            problem.probabilities * active / problem.min_sample_size
        )
        norm = float(np.linalg.norm(grad))
        if norm == 0.0:
            break  # every hinge saturated: at a maximiser
        step = (scale / np.sqrt(t)) * grad / norm
        sizes = project_capped_simplex(sizes + step, problem.memory)
        value = hinge_objective(problem, sizes)
        if value > best_value:
            best_value = value
            best = sizes.copy()
    return ConvexResult(
        sizes={name: float(s) for name, s in zip(problem.node_names, best)},
        objective=best_value,
    )
