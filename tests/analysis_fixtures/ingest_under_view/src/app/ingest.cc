// Semantic fixture: an engine's view is read after the next ingest(),
// which republishes the snapshot it copies (depth >= 2) or writes the
// live rows it reads (depth 1).  Taking the view after ingest is clean.
struct SnapshotView {
    int epoch = 0;
};
struct Engine {
    SnapshotView snapshot() const { return SnapshotView{}; }
    void ingest(int batch) { (void)batch; }
};
int stale_read(Engine& engine) {
    const SnapshotView view = engine.snapshot();
    engine.ingest(1);
    return view.epoch;
}
int fresh_read(Engine& engine) {
    engine.ingest(2);
    const SnapshotView view = engine.snapshot();
    return view.epoch;
}
