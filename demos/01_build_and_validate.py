"""
Building a network with timed nodes, and what validation catches
================================================================

A temporal node's states are (value, interval) pairs plus one default
"nothing changed" state, so defining one takes a value list, a default
label, and a chain of intervals. This script builds the bundled accident
network from scratch and then breaks it in a few ways to show the
validation report.
"""

from tnbn import (
    AllenRelation,
    ConditionalTable,
    NetworkSpec,
    NodeKind,
    NodeSpec,
    NodeState,
    TimeInterval,
    accident_network,
    allen_relation,
    interval_layout,
    resolve_interval,
    state_enumeration,
    validate,
)

# Vital signs can destabilize within the first 10 minutes, between 10 and 30,
# or between 30 and 60; staying normal through the whole hour is the default.
vs = NodeSpec(
    "VS",
    NodeKind.TEMPORAL,
    values=("unstable",),
    default_value="normal",
    intervals=(TimeInterval(0, 10), TimeInterval(10, 30), TimeInterval(30, 60)),
)

print("states of VS, default first:")
for state in state_enumeration(vs):
    print("  ", vs.state_label(state))

# The covered range [0,60] must start with the first interval (relation si),
# strictly contain the middle ones (di), and finish with the last (fi),
# while consecutive intervals meet exactly (m). That is what a well-formed
# interval chain looks like, and validate() enforces it.
print("\nrange [0,60] against each interval:")
rng = TimeInterval(0, 60)
for iv in vs.intervals:
    print(f"   {rng} vs {iv}: {allen_relation(rng, iv).value}")
layout = interval_layout(vs)
print("adjacent relations:", tuple(r.value for r in layout.adjacent_relations))
assert layout.range_relations == (AllenRelation.SI, AllenRelation.DI, AllenRelation.FI)

# Elapsed times resolve to interval indices. Bounds are half open, except
# that the very last interval keeps its endpoint.
print("\nelapsed time -> interval index:")
for t in (0, 9.5, 10, 29, 30, 60):
    print(f"   {t:>5} -> {resolve_interval(vs, t)}")

# The full network is bundled as a model file, which accident_network()
# loads from the package.
spec = accident_network()
print("\nbundled network:", spec.name)
print("  nodes:", ", ".join(spec.node_ids()))
print("  violations:", validate(spec))

# Now break it. Violations come back as data, one per problem, so a file
# with several mistakes reports all of them at once.
gap = NodeSpec(
    "VS",
    NodeKind.TEMPORAL,
    values=("unstable",),
    default_value="normal",
    intervals=(TimeInterval(0, 10), TimeInterval(15, 30)),  # hole at [10,15)
)
broken = NetworkSpec(
    "broken",
    "minute",
    nodes=(spec.node("C"), gap),
    edges=(("C", "VS"),),
    tables={
        "C": spec.tables["C"],
        "VS": ConditionalTable(
            "VS",
            ("C",),
            {
                (NodeState("severe"),): (0.1, 0.8, 0.2),  # sums to 1.1
                (NodeState("moderate"),): (0.5, 0.3, 0.2),
                (NodeState("mild"),): (0.9, 0.05, 0.05),
            },
        ),
    },
)
print("\nproblems in the broken variant:")
for violation in validate(broken):
    print("  ", violation)
