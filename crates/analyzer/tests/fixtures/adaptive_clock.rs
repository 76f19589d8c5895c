//! Seeded violation: an adaptive-distance prefetch controller that paces
//! its epochs with the wall clock instead of op counts. Analyzed under the
//! virtual path `crates/core/src/prefetch.rs` — hot-path state there must
//! advance on op counts so replays stay deterministic.

impl BadAdaptiveDist {
    pub fn record_hit_depth(&mut self, depth: usize) {
        self.depth_sum += depth;
        self.ops += 1;
        let now = std::time::Instant::now();
        if now.duration_since(self.epoch_start) > EPOCH_WALL {
            self.retune();
            self.epoch_start = now;
        }
    }
}
