"""Property tests for CFG region hashing (seeded-random program generation).

The summary cache's correctness rests on two properties of the region
digest, checked here over generated straight-line/branching programs:

1. **stability** -- re-parsing the same source (and even shifting every
   node id by prepending statements) leaves every region digest unchanged;
2. **sensitivity** -- a region's digest changes iff the region's IR
   changes: mutating one statement changes the digest of exactly the
   regions containing the mutated node, and leaves strictly-downstream
   regions untouched.
"""

import random

import pytest

from repro.cfg.builder import build_cfg
from repro.cfg.region_hash import RegionHashIndex, region_signature
from repro.lang.parser import parse_program

VARIABLES = ["a", "b", "c"]
PARAMS = ["x", "y", "z"]


def _random_statements(rng: random.Random, depth: int, budget: int) -> list:
    """A random MiniLang statement list using assignments and if/else."""
    lines = []
    count = rng.randint(1, 3)
    for _ in range(count):
        if budget <= 0 or depth >= 3 or rng.random() < 0.55:
            target = rng.choice(VARIABLES)
            left = rng.choice(VARIABLES + PARAMS)
            op = rng.choice(["+", "-", "*"])
            lines.append(f"{target} = {left} {op} {rng.randint(0, 9)};")
        else:
            guard_var = rng.choice(VARIABLES + PARAMS)
            relation = rng.choice(["<", "<=", ">", ">=", "==", "!="])
            guard = f"{guard_var} {relation} {rng.randint(-5, 5)}"
            then_branch = _random_statements(rng, depth + 1, budget - 1)
            else_branch = _random_statements(rng, depth + 1, budget - 1)
            lines.append(f"if ({guard}) {{")
            lines.extend("    " + line for line in then_branch)
            if rng.random() < 0.7:
                lines.append("} else {")
                lines.extend("    " + line for line in else_branch)
            lines.append("}")
    return lines


def _random_source(seed: int, body_prefix: str = "") -> str:
    rng = random.Random(seed)
    body = "\n".join("    " + line for line in _random_statements(rng, 0, 3))
    globals_block = "".join(f"global int {name} = 0;\n" for name in VARIABLES)
    params = ", ".join(f"int {name}" for name in PARAMS)
    return f"{globals_block}\nproc generated({params}) {{\n{body_prefix}{body}\n}}\n"


def _signatures(source: str):
    cfg = build_cfg(parse_program(source).procedures[0])
    return cfg, {node.node_id: region_signature(cfg, node) for node in cfg.nodes}


@pytest.mark.parametrize("seed", range(25))
def test_region_hash_stable_under_reparse(seed):
    """Parsing the same source twice yields identical digests per node."""
    source = _random_source(seed)
    _, first = _signatures(source)
    _, second = _signatures(source)
    assert first.keys() == second.keys()
    for node_id, signature in first.items():
        assert signature.digest == second[node_id].digest
        assert signature.used_vars == second[node_id].used_vars


@pytest.mark.parametrize("seed", range(25))
def test_region_hash_independent_of_node_ids(seed):
    """Prepending statements shifts every node id but no suffix digest.

    This is the re-parse scenario that matters across program versions: an
    edit upstream renumbers the unchanged suffix, whose regions must still
    hash identically so cached summaries keep matching.
    """
    source = _random_source(seed)
    padded = _random_source(seed, body_prefix="    a = 1;\n    b = 2;\n")
    _, plain = _signatures(source)
    _, shifted = _signatures(padded)
    # The two prepended assignments occupy ids 0 and 1; statement node i of
    # the original program is node i + 2 of the padded one.
    for node_id, signature in plain.items():
        if node_id < 0:  # begin/end: begin's region differs (it contains the pad)
            continue
        counterpart = shifted[node_id + 2]
        assert signature.digest == counterpart.digest, f"node {node_id} digest drifted"


def _mutate_one_literal(rng: random.Random, source: str):
    """Replace one numeric literal with a different one; returns (line, new)."""
    lines = source.splitlines()
    candidates = [
        i
        for i, line in enumerate(lines)
        if "= " in line and line.strip().endswith(";") and not line.startswith("global")
    ]
    if not candidates:
        return None
    target = rng.choice(candidates)
    line = lines[target]
    head, tail = line.rsplit(" ", 1)
    literal = tail.rstrip(";")
    if not literal.lstrip("-").isdigit():
        return None
    lines[target] = f"{head} {int(literal) + 100};"
    return target, "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", range(40))
def test_region_hash_changes_iff_region_changes(seed):
    """Digests change exactly for regions containing the mutated node."""
    rng = random.Random(10_000 + seed)
    source = _random_source(seed)
    mutation = _mutate_one_literal(rng, source)
    if mutation is None:
        pytest.skip("generated program had no mutable literal")
    _, mutated_source = mutation
    cfg_old, old = _signatures(source)
    cfg_new, new = _signatures(mutated_source)
    assert old.keys() == new.keys()
    # Identify the mutated node: same id in both parses (single in-place edit).
    changed_ids = {
        node_id
        for node_id in old
        if cfg_old.node(node_id).structural_key() != cfg_new.node(node_id).structural_key()
    }
    assert len(changed_ids) == 1
    for node_id, signature in old.items():
        contains_change = bool(signature.index.keys() & changed_ids)
        if contains_change:
            assert signature.digest != new[node_id].digest, (
                f"region of n{node_id} contains the edit but hashed identically"
            )
        else:
            assert signature.digest == new[node_id].digest, (
                f"region of n{node_id} is untouched but its hash changed"
            )


@pytest.mark.parametrize("seed", range(15))
def test_segment_signatures_stable_and_bounded(seed):
    """Segments re-hash stably and never include their boundary node."""
    source = _random_source(seed)
    cfg_a = build_cfg(parse_program(source).procedures[0])
    cfg_b = build_cfg(parse_program(source).procedures[0])
    index_a, index_b = RegionHashIndex(cfg_a), RegionHashIndex(cfg_b)
    for node in cfg_a.nodes:
        segment_a = index_a.segment(node)
        segment_b = index_b.segment(cfg_b.node(node.node_id))
        if segment_a is None:
            assert segment_b is None
            continue
        assert segment_a.digest == segment_b.digest
        assert segment_a.boundary_id is not None
        assert segment_a.boundary_id not in segment_a.index


def test_suffix_and_segment_digests_never_collide():
    """A segment digest can never equal a suffix digest (distinct keyspaces)."""
    source = _random_source(3)
    cfg = build_cfg(parse_program(source).procedures[0])
    index = RegionHashIndex(cfg)
    suffix_digests = {index.signature(node).digest for node in cfg.nodes}
    for node in cfg.nodes:
        segment = index.segment(node)
        if segment is not None:
            assert segment.digest not in suffix_digests


def test_all_digests_covers_segments():
    source = _random_source(7)
    cfg = build_cfg(parse_program(source).procedures[0])
    index = RegionHashIndex(cfg)
    digests = index.all_digests()
    for node in cfg.nodes:
        assert index.signature(node).digest in digests
        segment = index.segment(node)
        if segment is not None:
            assert segment.digest in digests
