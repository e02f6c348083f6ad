"""Criterion weighting from pairwise-comparison matrices.

Weights are the normalized principal right eigenvector of a reciprocal
judgment matrix, found by deterministic power iteration. The consistency
ratio CR = ((lambda_max - n) / (n - 1)) / RI(n) gates every matrix before
hierarchy synthesis multiplies local weights down to the leaves in one pass
over the internal nodes, in the pre-order of the hierarchy's one walk, made
without recursion at construction. Each matrix computes its eigenpair once
and keeps it, so gating a hierarchy again and synthesizing its weights
repeat no iteration.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, GateError, InputError, NumericalError

# Saaty's random-index table.
RANDOM_INDEX = {
    1: 0.0, 2: 0.0, 3: 0.58, 4: 0.90, 5: 1.12, 6: 1.24, 7: 1.32,
    8: 1.41, 9: 1.45, 10: 1.49, 11: 1.51, 12: 1.48, 13: 1.56,
    14: 1.57, 15: 1.59,
}

SAATY_MIN = 1.0 / 9.0
SAATY_MAX = 9.0

POWER_TOL = 1e-12
POWER_MAX_ITER = 10_000
DEFAULT_CR_THRESHOLD = 0.1


@dataclass(frozen=True)
class ComparisonMatrix:
    """Square reciprocal pairwise-judgment matrix over named items."""

    id: str
    items: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        n = len(self.items)
        if not 2 <= n <= 15:
            raise InputError(f"matrix {self.id!r}: dimension must be in [2, 15], got {n}")
        if len(set(self.items)) != n:
            raise InputError(f"matrix {self.id!r}: item names must be unique")
        if len(self.rows) != n or any(len(r) != n for r in self.rows):
            raise InputError(f"matrix {self.id!r}: expected a {n}x{n} table")
        for i in range(n):
            if abs(self.rows[i][i] - 1.0) > 1e-9:
                raise InputError(f"matrix {self.id!r}: diagonal entry [{i}][{i}] is not 1")
            for j in range(n):
                a = self.rows[i][j]
                if not (a > 0.0) or not np.isfinite(a):
                    raise InputError(f"matrix {self.id!r}: entry [{i}][{j}] must be positive")
                if not (SAATY_MIN - 1e-9 <= a <= SAATY_MAX + 1e-9):
                    raise InputError(
                        f"matrix {self.id!r}: entry [{i}][{j}]={a} outside the 1/9..9 scale"
                    )
                if abs(a * self.rows[j][i] - 1.0) > 1e-9:
                    raise InputError(
                        f"matrix {self.id!r}: entries [{i}][{j}] and [{j}][{i}] "
                        "are not reciprocal"
                    )

    @property
    def n(self) -> int:
        return len(self.items)

    def as_array(self) -> np.ndarray:
        return np.array(self.rows, dtype=float)

    @functools.cached_property
    def _eigenpair(self) -> tuple[np.ndarray, float]:
        """The principal eigenvector (sum-normalized, read-only) and lambda_max."""
        w, lam = _power_iterate(self)
        w.flags.writeable = False
        return w, lam


@dataclass(frozen=True)
class WeightVector:
    """Non-negative weights over named items, summing to 1."""

    items: tuple[str, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.items) != len(self.values):
            raise InputError("weight vector items/values length mismatch")
        if any(v < 0 for v in self.values):
            raise InputError("weights must be non-negative")
        if not abs(sum(self.values) - 1.0) <= 1e-12:  # NaN fails too
            raise InputError(f"weights must sum to 1, got {sum(self.values)!r}")

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.items, self.values))


def _power_iterate(matrix: ComparisonMatrix) -> tuple[np.ndarray, float]:
    """Converged principal eigenvector (sum-normalized) and lambda_max."""
    a = matrix.as_array()
    n = matrix.n
    v = np.full(n, 1.0 / n)
    for _ in range(POWER_MAX_ITER):
        w = a @ v
        w = w / w.sum()
        if float(np.max(np.abs(w - v))) <= POWER_TOL:
            lam = float((a @ w).sum())
            return w, lam
        v = w
    raise NumericalError(
        f"matrix {matrix.id!r}: power iteration did not converge in {POWER_MAX_ITER} steps"
    )


def principal_weights(matrix: ComparisonMatrix) -> WeightVector:
    """Normalized principal eigenvector of the judgment matrix."""
    w, _ = matrix._eigenpair
    w = w / w.sum()
    return WeightVector(matrix.items, tuple(float(x) for x in w))


def consistency_ratio(matrix: ComparisonMatrix) -> float:
    """CR of the matrix; 0 by convention for n <= 2 (always consistent)."""
    n = matrix.n
    if n <= 2:
        return 0.0
    _, lam = matrix._eigenpair
    ci = (lam - n) / (n - 1)
    if ci < 0.0:  # numerical noise around a perfectly consistent matrix
        ci = 0.0
    return ci / RANDOM_INDEX[n]


@dataclass(frozen=True)
class GateResult:
    matrix_id: str
    cr: float
    threshold: float
    passed: bool


def gate(matrix: ComparisonMatrix, threshold: float = DEFAULT_CR_THRESHOLD) -> GateResult:
    """Pass/fail the matrix against the CR threshold; fails iff CR >= threshold."""
    if threshold <= 0:
        raise ConfigError(f"gate threshold must be positive, got {threshold}")
    cr = consistency_ratio(matrix)
    return GateResult(matrix.id, cr, threshold, cr < threshold)


@dataclass(frozen=True)
class HierarchyNode:
    """An internal node: its children (node ids or criterion ids) and the
    judgment matrix over them. Single-child nodes need no matrix."""

    id: str
    children: tuple[str, ...]
    matrix: ComparisonMatrix | None = None

    def __post_init__(self):
        if not self.children:
            raise ConfigError(f"hierarchy node {self.id!r} has no children")
        if len(set(self.children)) != len(self.children):
            raise ConfigError(f"hierarchy node {self.id!r} lists a child twice")
        if self.matrix is None:
            if len(self.children) > 1:
                raise ConfigError(
                    f"hierarchy node {self.id!r} has {len(self.children)} children "
                    "but no comparison matrix"
                )
        else:
            if self.matrix.items != self.children:
                raise ConfigError(
                    f"hierarchy node {self.id!r}: matrix items {self.matrix.items} "
                    f"do not match children {self.children}"
                )


@dataclass(frozen=True)
class Hierarchy:
    """Goal-to-leaves tree with one comparison matrix per multi-child node.
    Construction walks it once on an explicit stack, so any depth loads:
    ``order`` holds the internal nodes in pre-order, ``leaves()`` the leaves.
    A child met twice has two parents; one that is the root closes a cycle."""

    nodes: tuple[HierarchyNode, ...]
    root: str
    order: tuple[HierarchyNode, ...] = field(init=False, compare=False, repr=False)
    _leaves: tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        index = {n.id: n for n in self.nodes}
        if len(index) != len(self.nodes):
            raise ConfigError("hierarchy node ids must be unique")
        if self.root not in index:
            raise ConfigError(f"hierarchy root {self.root!r} is not a declared node")

        order = [index[self.root]]
        leaves: list[str] = []
        seen_children: set[str] = set()
        stack = [iter(order[0].children)]
        while stack:
            for child in stack[-1]:
                if child in seen_children:
                    raise ConfigError(f"{child!r} appears under two hierarchy parents")
                seen_children.add(child)
                if child == self.root:
                    raise ConfigError(f"hierarchy contains a cycle through {child!r}")
                node = index.get(child)
                if node is None:
                    leaves.append(child)  # a criterion id
                else:
                    order.append(node)
                    stack.append(iter(node.children))
                    break
            else:
                stack.pop()
        unreachable = set(index) - {n.id for n in order}
        if unreachable:
            raise ConfigError(f"hierarchy nodes unreachable from root: {sorted(unreachable)}")
        object.__setattr__(self, "order", tuple(order))
        object.__setattr__(self, "_leaves", tuple(leaves))

    def leaves(self) -> tuple[str, ...]:
        return self._leaves

    def matrices(self) -> tuple[ComparisonMatrix, ...]:
        return tuple(n.matrix for n in self.nodes if n.matrix is not None)


def gate_hierarchy(hierarchy: Hierarchy,
                   threshold: float = DEFAULT_CR_THRESHOLD) -> tuple[GateResult, ...]:
    """The gate result of every matrix of the hierarchy. Raises
    ``GateError`` listing the failing matrices if any fails."""
    results = tuple(gate(m, threshold) for m in hierarchy.matrices())
    failures = [(r.matrix_id, r.cr) for r in results if not r.passed]
    if failures:
        raise GateError(failures)
    return results


def synthesize(hierarchy: Hierarchy, threshold: float = DEFAULT_CR_THRESHOLD) -> WeightVector:
    """Global leaf weights: the product of local weights along each root path.

    Every matrix must pass the consistency gate first; any failure rejects
    the whole hierarchy, listing the offending nodes.
    """
    gate_hierarchy(hierarchy, threshold)

    acc = {hierarchy.root: 1.0}
    for node in hierarchy.order:
        local = (1.0,) if node.matrix is None else principal_weights(node.matrix).values
        for child, w in zip(node.children, local):
            acc[child] = acc[node.id] * w
    leaf_weights = [acc[leaf] for leaf in hierarchy.leaves()]
    total = sum(leaf_weights)
    return WeightVector(hierarchy.leaves(), tuple(w / total for w in leaf_weights))


def load_matrix_csv(path: str | Path, matrix_id: str | None = None) -> ComparisonMatrix:
    """Read a comparison matrix from CSV: a header row of item ids followed
    by one numeric row per item."""
    path = Path(path)
    try:
        # utf-8-sig drops the byte order mark a spreadsheet may write
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read matrix file {path}: {exc}") from exc
    if not rows:
        raise InputError(f"matrix file {path} is empty")
    header = [cell.strip() for cell in rows[0]]
    data = []
    for line_no, row in enumerate(rows[1:], start=2):
        try:
            data.append(tuple(float(cell) for cell in row))
        except ValueError as exc:
            raise InputError(f"{path}:{line_no}: non-numeric matrix entry") from exc
    return ComparisonMatrix(
        id=matrix_id or path.stem,
        items=tuple(header),
        rows=tuple(data),
    )
