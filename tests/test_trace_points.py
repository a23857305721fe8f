"""The benchmark reaches the program by attribute name.

`perfbench/tracing.py` reads each wrapped attribute through
`owner.__dict__[attr]`, so an attribute that moves to a base class or a
helper breaks the benchmark's trace passes. `perfbench/families.py` calls
the program through attribute chains rooted at the package (`G.gap_match`,
`G.one_sided.OneSidedOracle`, ...), so one that moves or is renamed breaks
every benchmark round. The tracer also counts an index's entries from its
`tables` or, when that is None, its `dense` attribute. These tests load
the tracer from its file and parse the families' source, and check both
against the program; they change nothing under `perfbench/`.
"""

import ast
import importlib.util
from pathlib import Path

import gapedit
from gapedit.hashing import HashConfig, sample_rate
from gapedit.instances import gen_planted

PERFBENCH = Path(__file__).parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
FAMILIES = PERFBENCH / "families.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _wrap_points():
    return _tracing()._wrap_points(gapedit)


def test_every_wrapped_attribute_is_the_owners_own():
    points = _wrap_points()
    assert points
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, _, _ in points if attr not in vars(owner)]
    assert missing == []


def test_the_tracer_counts_the_entries_of_every_index(tmp_path):
    entries = _tracing()._entries
    a = gen_planted(256, 4, 0, seed=1).a
    cfg = HashConfig.from_seed(2)
    assert sample_rate(256, 24) < 1 <= sample_rate(256, 8)
    greedy = gapedit.OneSidedIndex.preprocess(a, 24, cfg)
    wave_below = gapedit.OneSidedWaveIndex.preprocess(a, 48, 24, cfg)
    wave_at_one = gapedit.OneSidedWaveIndex.preprocess(a, 24, 8, cfg)
    assert entries(greedy) > 0 and entries(wave_below) > 0
    assert entries(wave_at_one) == 257  # A's prefix hashes H[0 .. n]
    # loading rebuilds a rate-1 index from A's symbols: the same H
    wave_at_one.save(tmp_path / "a.gedt1s")
    loaded = gapedit.OneSidedWaveIndex.load(tmp_path / "a.gedt1s")
    assert entries(loaded) == 257


def _package_chains(source: str) -> set[tuple[str, ...]]:
    """Every longest attribute chain rooted at `G` or `self.G`, as the
    attribute names after the root. A name assigned such a chain
    (`strings = self.G.strings`) roots chains too."""
    tree = ast.parse(source)
    aliases = {}

    def chain(node):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        names.reverse()
        if not isinstance(node, ast.Name):
            return None
        if node.id == "self" and names[:1] == ["G"]:
            return tuple(names[1:])
        if node.id == "G":
            return tuple(names)
        if node.id in aliases:
            return aliases[node.id] + tuple(names)
        return None

    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Attribute)):
            got = chain(node.value)
            if got:
                aliases[node.targets[0].id] = got
    inner = {id(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    chains = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            got = chain(node)
            if got:
                chains.add(got)
    return chains


def test_every_entry_point_the_families_use_resolves():
    chains = _package_chains(FAMILIES.read_text())
    # the entry points that moved or were renamed most often
    assert {("gap_match",), ("one_sided", "OneSidedOracle"),
            ("wave", "IndexedShiftOracle"),
            ("strings", "edit_distance_exact")} <= chains
    missing = []
    for chain in sorted(chains):
        obj = gapedit
        for name in chain:
            if not hasattr(obj, name):
                missing.append(".".join(("G", *chain)))
                break
            obj = getattr(obj, name)
    assert missing == []
