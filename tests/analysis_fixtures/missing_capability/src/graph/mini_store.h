// Semantic fixture: the backend declares apply_coalesced in layers.toml
// but no longer defines it (renamed to apply_bulk) — the engine's
// `if constexpr (requires ...)` probe would silently take the fallback.
#ifndef IGS_GRAPH_MINI_STORE_H
#define IGS_GRAPH_MINI_STORE_H
struct MiniStore {
    void apply_insert(int u, int v) { (void)u; (void)v; }
    void apply_bulk() {}
};
#endif
