"""Post-dominance, control dependence and the branch-free closure against
brute-force oracles.

The oracle reads only the graph's edges.  For ``n != m``, ``m``
post-dominates ``n`` iff the exit is unreachable from ``n`` once ``m`` is
deleted (Definition 3.8); every node post-dominates itself.  The immediate
post-dominator of ``n`` is the strict post-dominator that every other strict
post-dominator of ``n`` post-dominates.  ``nj`` is control dependent on
``ni`` iff ``ni`` has two distinct successors ``nk`` and ``nl`` such that
``nj`` post-dominates ``nk`` but not ``nl`` (Definition 3.9).

The analyses are compared with it on every CFG of the artifact corpus, on
generated programs with loops, assertions and calls, and on generated
graphs, whose nodes may have three or more successors (no program lowers
to a node with more than two).  ``check_well_formed`` is compared with a per-node
reachability check on generated graphs that may break Definition 3.1.

A node's branch-free closure (``cfg.branch_free_closure``) is compared, on
the same corpus, programs and graphs, with a search along the graph's edges
that expands no ``BRANCH``, ``END`` or ``ERROR`` node.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.artifacts import all_artifacts, interproc_artifacts
from repro.cfg.builder import build_cfg
from repro.cfg.graph import ControlFlowGraph
from repro.cfg.ir import NodeKind
from repro.lang.parser import parse_program


def adjacency(cfg):
    successors = {node.node_id: [] for node in cfg.nodes}
    predecessors = {node.node_id: [] for node in cfg.nodes}
    for edge in cfg.edges:
        successors[edge.source].append(edge.target)
        predecessors[edge.target].append(edge.source)
    return successors, predecessors


def reached(start, edges, deleted=None):
    """Node ids reachable from ``start`` along ``edges`` without entering ``deleted``."""
    if start == deleted:
        return set()
    seen, stack = {start}, [start]
    while stack:
        for other in edges[stack.pop()]:
            if other != deleted and other not in seen:
                seen.add(other)
                stack.append(other)
    return seen


def oracle(cfg):
    """Post-dominators, immediate post-dominator, dependents and controllers by node id."""
    successors, predecessors = adjacency(cfg)
    ids = [node.node_id for node in cfg.nodes]
    end = cfg.end.node_id
    pdom = {n: {n} for n in ids}
    for m in ids:
        # The nodes that still reach the exit once m is deleted.
        escaping = reached(end, predecessors, deleted=m)
        for n in ids:
            if n != m and n not in escaping:
                pdom[n].add(m)
    immediate = {}
    for n in ids:
        strict = pdom[n] - {n}
        closest = [c for c in strict if strict - {c} <= pdom[c]]
        assert len(closest) <= 1
        immediate[n] = closest[0] if closest else None
    dependents = {n: set() for n in ids}
    controllers = {n: set() for n in ids}
    for i in ids:
        for k in successors[i]:
            for l in successors[i]:
                if k == l:
                    continue
                for j in pdom[k] - pdom[l]:
                    dependents[i].add(j)
                    controllers[j].add(i)
    return pdom, immediate, dependents, controllers


def closure_oracle(cfg):
    """Each node's branch-free closure by node id, one search per node."""
    successors, _ = adjacency(cfg)
    stopping = (NodeKind.BRANCH, NodeKind.END, NodeKind.ERROR)
    stops = {node.node_id for node in cfg.nodes if node.kind in stopping}
    closure = {}
    for node in cfg.nodes:
        seen, stack = {node.node_id}, [node.node_id]
        while stack:
            current = stack.pop()
            if current in stops:
                continue
            for other in successors[current]:
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        closure[node.node_id] = seen
    return closure


def assert_matches_oracle(cfg, every_pair=False):
    assert cfg.branch_free_closure == closure_oracle(cfg)
    pdom, immediate, dependents, controllers = oracle(cfg)
    post_dominance, dependence = cfg.post_dominance, cfg.control_dependence
    for node in cfg.nodes:
        n = node.node_id
        assert post_dominance.post_dominators(node) == pdom[n], node.name
        found = post_dominance.immediate_post_dominator(node)
        assert (None if found is None else found.node_id) == immediate[n], node.name
        assert dependence.dependents_of(node) == dependents[n], node.name
        assert dependence.controllers_of(node) == controllers[n], node.name
        if every_pair:
            for other in cfg.nodes:
                m = other.node_id
                assert post_dominance.post_dominates(node, other) == (m in pdom[n])
                assert dependence.is_control_dependent(node, other) == (m in dependents[n])


def artifact_cfgs():
    for artifact in (*all_artifacts(), *interproc_artifacts()):
        for name, _, _, source in artifact.history():
            yield f"{artifact.name}/{name}", artifact.procedure_name, source


@pytest.mark.parametrize(
    "procedure, source",
    [(procedure, source) for _, procedure, source in artifact_cfgs()],
    ids=[label for label, _, _ in artifact_cfgs()],
)
def test_artifact_cfgs_match_the_oracle(procedure, source):
    assert_matches_oracle(build_cfg(parse_program(source), procedure))


# -- generated programs ---------------------------------------------------------

CONDITIONS = ["a > 0", "b <= a", "g != 1", "a == b"]


@st.composite
def statements(draw, depth, in_helper):
    """A block of statements; the helper may return early, the entry may call it."""
    kinds = ["assign", "if", "while", "assert"]
    if depth > 0:
        kinds += ["if-else", "nested"]
    kinds += ["return"] if in_helper else ["call", "bare-call"]
    result = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(kinds))
        condition = draw(st.sampled_from(CONDITIONS))
        variable = draw(st.sampled_from(["a", "b", "g"]))
        if kind == "assign":
            result.append(f"{variable} = {variable} + 1;")
        elif kind == "if":
            inner = draw(statements(depth - 1, in_helper)) if depth > 0 else f"{variable} = 0;"
            result.append(f"if ({condition}) {{ {inner} }}")
        elif kind == "if-else":
            then = draw(statements(depth - 1, in_helper))
            otherwise = draw(statements(depth - 1, in_helper))
            result.append(f"if ({condition}) {{ {then} }} else {{ {otherwise} }}")
        elif kind == "nested":
            inner = draw(statements(depth - 1, in_helper))
            result.append(f"if ({condition}) {{ if (b > 1) {{ {inner} }} }}")
        elif kind == "while":
            body = draw(statements(depth - 1, in_helper)) if depth > 0 else ""
            result.append(f"while ({condition}) {{ {body} a = a - 1; }}")
        elif kind == "assert":
            result.append(f"assert {condition};")
        elif kind == "return":
            result.append(f"if ({condition}) {{ return {variable}; }}")
        elif kind == "call":
            result.append(f"{variable} = h({variable});")
        else:
            result.append("h(b);")
    return " ".join(result)


@st.composite
def programs(draw):
    helper = draw(statements(1, True))
    entry = draw(statements(2, False))
    return (
        "global int g = 0;\n"
        f"proc h(int a) {{ int b = a; {helper} return a + b; }}\n"
        f"proc f(int a, int b) {{ {entry} }}\n"
    )


@settings(max_examples=150, deadline=None)
@given(programs())
def test_generated_programs_match_the_oracle(source):
    assert_matches_oracle(build_cfg(parse_program(source), "f"), every_pair=True)


# -- generated graphs -------------------------------------------------------------


def graph(size, extra_edges, spine=True):
    """``size`` NOP nodes between begin and end with ``extra_edges`` among them.

    Edge endpoints index ``[begin, n0, ..., n(size-1), end]``.  With
    ``spine`` the graph also has begin -> n0 -> ... -> end, so it is
    well formed; without it only begin -> n0 is added.
    """
    cfg = ControlFlowGraph("generated")
    begin = cfg.new_node(NodeKind.BEGIN)
    middle = [cfg.new_node(NodeKind.NOP) for _ in range(size)]
    end = cfg.new_node(NodeKind.END)
    chain = [begin, *middle, end]
    if spine:
        for source, target in zip(chain, chain[1:]):
            cfg.add_edge(source, target)
    else:
        cfg.add_edge(begin, chain[1])
    for source, target in extra_edges:
        source, target = chain[source % (size + 1)], chain[1 + target % (size + 1)]
        cfg.add_edge(source, target)
    return cfg


edge_lists = st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=14)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=8), edge_lists)
def test_generated_graphs_match_the_oracle(size, extra_edges):
    cfg = graph(size, extra_edges)
    cfg.check_well_formed()
    assert_matches_oracle(cfg, every_pair=True)


def test_every_successor_pair_counts():
    """A three-way node whose first two successors agree on a dependent."""
    cfg = ControlFlowGraph("three_way")
    begin = cfg.new_node(NodeKind.BEGIN)
    fork = cfg.new_node(NodeKind.NOP)
    left, middle, right = (cfg.new_node(NodeKind.NOP) for _ in range(3))
    join = cfg.new_node(NodeKind.NOP)
    end = cfg.new_node(NodeKind.END)
    cfg.add_edge(begin, fork)
    for successor in (left, middle, right):
        cfg.add_edge(fork, successor)
    cfg.add_edge(left, join)
    cfg.add_edge(middle, join)
    cfg.add_edge(right, end)
    cfg.add_edge(join, end)
    # join post-dominates left and middle but not right: only the pairs with
    # right make it a dependent of the fork.
    dependents = {left.node_id, middle.node_id, right.node_id, join.node_id}
    assert cfg.control_dependence.dependents_of(fork) == dependents
    assert_matches_oracle(cfg, every_pair=True)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=6), edge_lists)
def test_well_formedness_check_matches_per_node_reachability(size, extra_edges):
    cfg = graph(size, extra_edges, spine=False)
    successors, _ = adjacency(cfg)
    from_begin = reached(cfg.begin.node_id, successors)
    expected = None
    for node in cfg.nodes:
        if node.node_id not in from_begin:
            expected = f"Node {node.name} is not reachable from nbegin"
        elif cfg.end.node_id not in reached(node.node_id, successors):
            expected = f"nend is not reachable from node {node.name}"
        if expected:
            break
    if expected is None:
        cfg.check_well_formed()
    else:
        with pytest.raises(ValueError) as error:
            cfg.check_well_formed()
        assert str(error.value) == expected
