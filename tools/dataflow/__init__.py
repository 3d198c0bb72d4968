"""Interprocedural dataflow passes of igs_analyze (DESIGN.md §10).

Each pass module exposes `run(model, config, findings)` over the same
parsed Model the other passes use (tools/semantic/), where `config`
is the parsed tools/layers.toml document.  Three pass families:

  roles        epoch-ownership protocol verification: infer thread roles
               from compute registrations and in-member thread spawns,
               then prove the compute-role call graph never reaches a
               live-graph mutator or a non-snapshot read path.
  publication  atomic publication pairing: match release stores to
               acquire loads on the same object and flag relaxed writes
               feeding cross-thread publication.
  intervals    value-range / narrowing analysis on the [hot_paths] root
               files: provable uint32 overflow and unguarded wide->narrow
               casts.

Abstract domains and soundness caveats are documented in DESIGN.md §10;
everything repo-specific the passes need lives under [dataflow.*] in
tools/layers.toml.
"""
