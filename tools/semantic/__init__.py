"""Parser, Model and passes behind tools/igs_analyze.py.

Two frontends produce one intermediate model (tools/semantic/model.py):

  - frontend_clang  libclang (clang.cindex) when importable — parses the
                    real translation units and cross-validates the model;
  - ast_lite        always available — a C++ tokenizer plus a lightweight
                    parser tuned to this repository's idiom (namespaces,
                    template classes, member/param/local types, constexpr
                    requires-probes, explicit instantiations).

Passes over the model (tools/semantic/passes/):

  lint            per-file token rules (mutexes, checks, atomics, guards,
                  includes);
  graphs          module layering, include cycles, lock-order cycles;
  hot_path        template-aware hot-path escape analysis with per-backend
                  attribution through instantiated specializations;
  lifetime        SnapshotView escape / invalidation / compute-stage
                  isolation (the pipeline's one-epoch-ahead invariant);
  contracts       GraphStore backend concept-surface conformance and the
                  backend-capability matrix;
  telemetry_keys  telemetry counter-name registry, naming-scheme
                  conformance, and golden-JSON key cross-check.

The dataflow passes (tools/dataflow/) run over the same model.  The
driver owns the allow() pragmas, the audited baseline
(tools/semantic/baseline.py) and the SARIF log (tools/semantic/sarif.py).
"""
