//! The list-layer metrics come from a cache-simulator replay of each deep
//! workload's seeded flows. They are reported as exact counts, so the same
//! seed must give the same counts on every run.

use flowbench::deep::{replay, EVICTING, RESIDENT};

const FLOWS: usize = 40;

#[test]
fn cachesim_counts_repeat_exactly_for_every_seed() {
    for seed in [1, 2, 3] {
        for w in [&RESIDENT, &EVICTING] {
            let first = replay(w, seed, FLOWS);
            assert_eq!(first.flows, FLOWS as u64);
            assert_eq!(first, replay(w, seed, FLOWS), "{} seed {seed}", w.name);
        }
    }
}

#[test]
fn eviction_lowers_private_cache_hits_for_every_seed() {
    for seed in [1, 2, 3] {
        let r = replay(&RESIDENT, seed, FLOWS);
        let e = replay(&EVICTING, seed, FLOWS);
        assert!(
            e.hit_pct(e.l1 + e.l2) < r.hit_pct(r.l1 + r.l2),
            "seed {seed}: evicting {e:?} vs resident {r:?}"
        );
    }
}
