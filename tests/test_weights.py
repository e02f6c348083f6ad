import collections
import itertools
import random

import numpy as np
import pytest

from branchsite.errors import ConfigError, GateError, InputError
from branchsite.weights import (
    RANDOM_INDEX,
    ComparisonMatrix,
    Hierarchy,
    HierarchyNode,
    WeightVector,
    consistency_ratio,
    gate,
    load_matrix_csv,
    principal_weights,
    synthesize,
)

from helpers import consistent_matrix, reference_hierarchy


def oracle_cr(matrix: ComparisonMatrix) -> float:
    """Dense-eigenvalue consistency ratio, independent of power iteration."""
    a = matrix.as_array()
    n = a.shape[0]
    lam = float(np.max(np.real(np.linalg.eigvals(a))))
    return ((lam - n) / (n - 1)) / RANDOM_INDEX[n]


def perturbed_4x4(factor: float) -> ComparisonMatrix:
    """Consistent 4x4 with one off-diagonal pair multiplied by factor, 1/factor."""
    w = [0.40, 0.28, 0.20, 0.12]
    rows = [[wi / wj for wj in w] for wi in w]
    rows[0][1] *= factor
    rows[1][0] /= factor
    return ComparisonMatrix("perturbed", ("a", "b", "c", "d"),
                            tuple(tuple(r) for r in rows))


class TestPrincipalWeights:
    def test_all_ones_gives_uniform(self):
        m = ComparisonMatrix("u", ("a", "b", "c"), ((1, 1, 1), (1, 1, 1), (1, 1, 1)))
        w = principal_weights(m)
        for v in w.values:
            assert v == pytest.approx(1 / 3, abs=1e-12)

    def test_consistent_2x2(self):
        m = ComparisonMatrix("m", ("a", "b"), ((1, 2), (0.5, 1)))
        w = principal_weights(m).as_dict()
        assert w["a"] == pytest.approx(2 / 3, abs=1e-12)
        assert w["b"] == pytest.approx(1 / 3, abs=1e-12)

    def test_recovers_weights_of_consistent_matrices(self):
        rng = random.Random(13)
        for n in range(3, 10):
            for _ in range(20):
                raw = [rng.uniform(0.15, 1.0) for _ in range(n)]
                total = sum(raw)
                target = [x / total for x in raw]
                m = consistent_matrix("c", [f"i{k}" for k in range(n)], target)
                got = principal_weights(m).values
                assert max(abs(g - t) for g, t in zip(got, target)) <= 1e-9

    def test_weights_sum_to_one(self):
        m = perturbed_4x4(3.0)
        w = principal_weights(m)
        assert sum(w.values) == pytest.approx(1.0, abs=1e-12)
        assert all(v >= 0 for v in w.values)


class TestComparisonMatrixValidation:
    def test_rejects_non_reciprocal(self):
        with pytest.raises(InputError, match="reciprocal"):
            ComparisonMatrix("m", ("a", "b"), ((1, 2), (1, 1)))

    def test_rejects_bad_diagonal(self):
        with pytest.raises(InputError, match="diagonal"):
            ComparisonMatrix("m", ("a", "b"), ((2, 2), (0.5, 1)))

    def test_rejects_out_of_scale(self):
        with pytest.raises(InputError, match="scale"):
            ComparisonMatrix("m", ("a", "b"), ((1, 12), (1 / 12, 1)))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(InputError):
            ComparisonMatrix("m", ("a",), ((1,),))


class TestConsistencyRatio:
    def test_consistent_matrix_is_zero(self):
        m = consistent_matrix("c", ("a", "b", "c", "d"), (0.4, 0.3, 0.2, 0.1))
        assert consistency_ratio(m) <= 1e-9

    def test_2x2_is_zero_by_convention(self):
        m = ComparisonMatrix("m", ("a", "b"), ((1, 5), (0.2, 1)))
        assert consistency_ratio(m) == 0.0

    def test_matches_dense_eigenvalue_oracle(self):
        for factor in (1.5, 2.0, 3.0, 3.9331193323138356, 5.755570334903554):
            m = perturbed_4x4(factor)
            assert consistency_ratio(m) == pytest.approx(oracle_cr(m), abs=1e-6)

    def test_cr_zero_iff_consistent(self):
        rng = random.Random(21)
        for _ in range(20):
            n = rng.randint(3, 6)
            raw = [rng.uniform(0.15, 1.0) for _ in range(n)]
            m = consistent_matrix("c", [f"i{k}" for k in range(n)], raw)
            assert consistency_ratio(m) <= 1e-9
            a = m.as_array()
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        assert a[i, j] * a[j, k] == pytest.approx(a[i, k], rel=1e-6)
        # and the converse: a clearly perturbed matrix is neither CR=0 nor consistent
        m = perturbed_4x4(5.755570334903554)
        assert consistency_ratio(m) > 1e-3
        a = m.as_array()
        assert abs(a[0, 1] * a[1, 2] - a[0, 2]) > 1e-3


class TestGate:
    def test_consistent_passes(self):
        m = consistent_matrix("c", ("a", "b", "c"), (0.5, 0.3, 0.2))
        result = gate(m, 0.1)
        assert result.passed and result.cr <= 1e-9

    def test_cr_015_fails_default_threshold(self):
        m = perturbed_4x4(5.755570334903554)
        assert oracle_cr(m) == pytest.approx(0.15, abs=1e-3)
        result = gate(m, 0.1)
        assert not result.passed
        assert result.matrix_id == "perturbed"

    def test_cr_009_passes_default_threshold(self):
        m = perturbed_4x4(3.9331193323138356)
        assert oracle_cr(m) == pytest.approx(0.09, abs=1e-3)
        assert gate(m, 0.1).passed

    def test_nonpositive_threshold_rejected(self):
        m = consistent_matrix("c", ("a", "b"), (0.5, 0.5))
        with pytest.raises(ConfigError):
            gate(m, 0.0)


def two_level_hierarchy():
    root = consistent_matrix("root", ("left", "right"), (0.5, 0.5))
    left = consistent_matrix("left", ("l1", "l2"), (0.5, 0.5))
    right = consistent_matrix("right", ("r1", "r2"), (0.5, 0.5))
    return Hierarchy(
        nodes=(
            HierarchyNode("goal", ("left", "right"), root),
            HierarchyNode("left", ("l1", "l2"), left),
            HierarchyNode("right", ("r1", "r2"), right),
        ),
        root="goal",
    )


class TestSynthesize:
    def test_uniform_two_level(self):
        w = synthesize(two_level_hierarchy())
        assert w.items == ("l1", "l2", "r1", "r2")
        for v in w.values:
            assert v == pytest.approx(0.25, abs=1e-12)

    def test_single_cluster_passthrough(self):
        m = consistent_matrix("only", ("a", "b", "c"), (0.5, 0.3, 0.2))
        h = Hierarchy(
            nodes=(
                HierarchyNode("goal", ("only",), None),
                HierarchyNode("only", ("a", "b", "c"), m),
            ),
            root="goal",
        )
        w = synthesize(h).as_dict()
        assert w["a"] == pytest.approx(0.5, abs=1e-9)
        assert w["b"] == pytest.approx(0.3, abs=1e-9)
        assert w["c"] == pytest.approx(0.2, abs=1e-9)

    def test_three_level_random_matches_path_product(self):
        rng = random.Random(31)
        for _ in range(10):
            cluster_w = [rng.uniform(0.2, 1.0) for _ in range(3)]
            total = sum(cluster_w)
            cluster_w = [x / total for x in cluster_w]
            nodes = []
            expected = {}
            root_children = ("c0", "c1", "c2")
            nodes.append(HierarchyNode(
                "goal", root_children,
                consistent_matrix("goal", root_children, cluster_w)))
            for ci, cname in enumerate(root_children):
                k = rng.randint(2, 4)
                leaf_ids = tuple(f"{cname}_leaf{j}" for j in range(k))
                lw = [rng.uniform(0.2, 1.0) for _ in range(k)]
                lt = sum(lw)
                lw = [x / lt for x in lw]
                nodes.append(HierarchyNode(
                    cname, leaf_ids, consistent_matrix(cname, leaf_ids, lw)))
                for leaf, w_local in zip(leaf_ids, lw):
                    expected[leaf] = cluster_w[ci] * w_local
            got = synthesize(Hierarchy(nodes=tuple(nodes), root="goal"))
            assert sum(got.values) == pytest.approx(1.0, abs=1e-12)
            for leaf, w_exp in expected.items():
                assert got.as_dict()[leaf] == pytest.approx(w_exp, abs=1e-12)

    def test_permutation_equivariant(self):
        h = two_level_hierarchy()
        base = synthesize(h).as_dict()
        # relabel by swapping the two clusters in the root matrix
        root = consistent_matrix("root", ("right", "left"), (0.5, 0.5))
        left = consistent_matrix("left", ("l1", "l2"), (0.5, 0.5))
        right = consistent_matrix("right", ("r1", "r2"), (0.5, 0.5))
        swapped = Hierarchy(
            nodes=(
                HierarchyNode("goal", ("right", "left"), root),
                HierarchyNode("left", ("l1", "l2"), left),
                HierarchyNode("right", ("r1", "r2"), right),
            ),
            root="goal",
        )
        assert synthesize(swapped).as_dict() == base

    def test_gate_failure_rejects_with_node_listed(self):
        bad = perturbed_4x4(5.755570334903554)
        h = Hierarchy(
            nodes=(
                HierarchyNode("goal", ("sub",), None),
                HierarchyNode("sub", ("a", "b", "c", "d"), bad),
            ),
            root="goal",
        )
        with pytest.raises(GateError) as exc:
            synthesize(h)
        assert exc.value.failures[0][0] == "perturbed"

    def test_duplicate_leaf_rejected(self):
        m = consistent_matrix("m", ("a", "b"), (0.5, 0.5))
        m2 = consistent_matrix("m2", ("a", "c"), (0.5, 0.5))
        with pytest.raises(ConfigError, match="two hierarchy parents"):
            Hierarchy(
                nodes=(
                    HierarchyNode("goal", ("x", "y"),
                                  consistent_matrix("goal", ("x", "y"), (0.5, 0.5))),
                    HierarchyNode("x", ("a", "b"), m),
                    HierarchyNode("y", ("a", "c"), m2),
                ),
                root="goal",
            )


class TestHierarchyWalk:
    def test_cycle_through_root_rejected(self):
        with pytest.raises(ConfigError) as exc:
            Hierarchy(nodes=(HierarchyNode("goal", ("a",)), HierarchyNode("a", ("goal",))),
                      root="goal")
        assert str(exc.value) == "hierarchy contains a cycle through 'goal'"

    def test_cycle_below_root_names_the_second_parent(self):
        """A cycle that does not pass through the root reaches a node that
        already has a parent, and that is the error it reports."""
        with pytest.raises(ConfigError) as exc:
            Hierarchy(nodes=(HierarchyNode("goal", ("a",)), HierarchyNode("a", ("b",)),
                             HierarchyNode("b", ("a",))), root="goal")
        assert str(exc.value) == "'a' appears under two hierarchy parents"

    def test_unreachable_nodes_rejected(self):
        with pytest.raises(ConfigError) as exc:
            Hierarchy(nodes=(HierarchyNode("z", ("y",)), HierarchyNode("goal", ("leaf",)),
                             HierarchyNode("y", ("z",))), root="goal")
        assert str(exc.value) == "hierarchy nodes unreachable from root: ['y', 'z']"

    def test_deep_chain_gives_the_flat_weights(self):
        """A 5,000-deep chain of single-child nodes above one leaf loads and
        leaves every weight's bits as the flat tree has them."""
        root = consistent_matrix("root", ("left", "right"), (0.7, 0.3))
        right = consistent_matrix("right", ("r1", "r2"), (0.2, 0.8))

        def tree(left_children, *chain):
            left = consistent_matrix("left", left_children, (0.35, 0.65))
            return Hierarchy(nodes=(HierarchyNode("goal", ("left", "right"), root),
                                    HierarchyNode("left", left_children, left),
                                    HierarchyNode("right", ("r1", "r2"), right), *chain),
                             root="goal")

        depth = 5_000
        chain = [HierarchyNode(f"k{i}", (f"k{i + 1}",)) for i in range(depth - 1)]
        chain.append(HierarchyNode(f"k{depth - 1}", ("l1",)))
        flat = synthesize(tree(("l1", "l2")))
        deep = tree(("k0", "l2"), *chain)
        assert deep.leaves() == flat.items == ("l1", "l2", "r1", "r2")
        assert synthesize(deep) == flat

    def test_matches_recursive_walk(self):
        """Error class and text, leaf order and weight bits equal those of
        the recursive walk on seeded random hierarchies, valid and not."""
        rng = random.Random(2024)
        outcomes = collections.Counter()
        for _ in range(2_000):
            nodes, root = random_hierarchy(rng)
            want = _outcome(lambda: reference_hierarchy(nodes, root))
            got = _outcome(lambda: _walk(nodes, root))
            assert got == want, (nodes, root)
            outcomes[want[0]] += 1
        # every outcome the walk can reach was drawn
        assert all(outcomes[k] >= 20 for k in (
            "ok", "two hierarchy parents", "cycle through", "unreachable from root",
            "must be unique", "not a declared node", "GateError")), outcomes


def _walk(nodes, root):
    h = Hierarchy(nodes=tuple(nodes), root=root)
    return h.leaves(), synthesize(h)


def _outcome(run):
    try:
        leaves, w = run()
    except (ConfigError, GateError) as exc:
        kind = next((k for k in ("two hierarchy parents", "cycle through",
                                 "unreachable from root", "must be unique",
                                 "not a declared node") if k in str(exc)), "GateError")
        return kind, type(exc), str(exc)
    return "ok", leaves, w.items, tuple(v.hex() for v in w.values)


def random_hierarchy(rng: random.Random):
    """A random tree of up to six nodes over up to eight leaves, then none,
    one or two faults: a second parent, a cycle through the root or below
    it, unreachable nodes, a duplicate node id or an undeclared root. One
    matrix in five is a random Saaty-scale table, which may fail the gate."""
    ids = [f"n{i}" for i in range(rng.randint(1, 6))]
    children = {nid: [] for nid in ids}
    for i, nid in enumerate(ids[1:], start=1):
        children[rng.choice(ids[:i])].append(nid)
    for leaf in range(rng.randint(1, 8)):
        children[rng.choice(ids)].append(f"c{leaf}")
    root = ids[0]
    extra = []
    for fault in rng.sample(("parent", "root cycle", "cycle", "unreachable",
                             "duplicate", "missing root"), rng.choice((0, 0, 1, 2))):
        if fault == "parent":
            child = rng.choice([c for kids in children.values() for c in kids] or [root])
            children[rng.choice(ids)].append(child)
        elif fault == "root cycle":
            children[rng.choice(ids)].append(root)
        elif fault == "cycle":
            children[rng.choice(ids)].append(rng.choice(ids[1:] or ids))
        elif fault == "unreachable":
            children["u0"] = ["u1"] if rng.random() < 0.5 else ["x0"]
            children["u1"] = ["u0"]
        elif fault == "duplicate":
            extra.append(rng.choice(ids))
        else:
            root = "missing"
    for nid, kids in children.items():
        kids[:] = dict.fromkeys(kids) or [f"{nid}_leaf"]
        rng.shuffle(kids)
    nodes = [_random_node(rng, nid, tuple(kids)) for nid, kids in children.items()]
    nodes += [_random_node(rng, nid, tuple(children[nid])) for nid in extra]
    rng.shuffle(nodes)
    return tuple(nodes), root


def _random_node(rng: random.Random, node_id: str, children: tuple[str, ...]) -> HierarchyNode:
    n = len(children)
    if n == 1:
        return HierarchyNode(node_id, children)
    if rng.random() < 0.2:
        scale = (1 / 9, 1 / 5, 1 / 3, 1.0, 3.0, 5.0, 9.0)
        rows = [[1.0] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            rows[i][j] = rng.choice(scale)
            rows[j][i] = 1.0 / rows[i][j]
        matrix = ComparisonMatrix(node_id, children, tuple(map(tuple, rows)))
    else:
        matrix = consistent_matrix(node_id, children, [rng.uniform(1.0, 8.9) for _ in children])
    return HierarchyNode(node_id, children, matrix)


class TestWeightVector:
    def test_must_sum_to_one(self):
        with pytest.raises(InputError):
            WeightVector(("a", "b"), (0.5, 0.6))

    @pytest.mark.parametrize("values", [(float("nan"), 1.0), (float("nan"), float("nan")),
                                        (float("inf"), 1.0)])
    def test_non_finite_weights_rejected(self, values):
        with pytest.raises(InputError, match="weights must sum to 1"):
            WeightVector(("a", "b"), values)

    def test_lookup(self):
        w = WeightVector(("a", "b"), (0.25, 0.75)).as_dict()
        assert w["b"] == 0.75
        with pytest.raises(KeyError):
            w["missing"]


class TestMatrixCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b,c\n1,2,4\n0.5,1,2\n0.25,0.5,1\n")
        m = load_matrix_csv(path)
        assert m.id == "m"
        assert m.items == ("a", "b", "c")
        assert consistency_ratio(m) <= 1e-9
        w = principal_weights(m).as_dict()
        assert w["a"] == pytest.approx(4 / 7, abs=1e-9)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        """A spreadsheet's "CSV UTF-8" starts with a byte order mark, which
        is not part of the first item id."""
        path = tmp_path / "m.csv"
        path.write_bytes("\ufeffa,b\n1,2\n0.5,1\n".encode("utf-8"))
        assert load_matrix_csv(path).items == ("a", "b")

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n1,x\n1,1\n")
        with pytest.raises(InputError, match="non-numeric"):
            load_matrix_csv(path)
