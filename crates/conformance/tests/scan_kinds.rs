//! Oracle conformance under every forced scan kind.
//!
//! The SIMD slab kernels (`spc_core::simd`) claim bit-for-bit equivalence
//! with the scalar packed scan; `tests/simd_props.rs` in `spc-core` pins
//! that at the kernel and trace level. This binary closes the loop at the
//! *semantic* level: the full randomized op streams replayed against the
//! Vec-backed oracle, with the process-global scan kind forced to each
//! supported kernel in turn — so a kind-dependent divergence in match
//! identity, FIFO arbitration, or depth accounting fails conformance, not
//! just a unit test.
//!
//! Everything lives in ONE test function because the scan kind is
//! process-global (mirroring the prefetch-distance convention): sibling
//! tests in this binary would race the override.

use spc_conformance::{
    diff_posted, diff_umq, posted_ops, render_ops, shrink_ops, umq_ops, DepthMode,
};
use spc_core::entry::{PostedEntry, UnexpectedEntry};
use spc_core::list::{BaselineList, Lla, MatchList};
use spc_core::simd::{self, ScanKind};

const N_OPS: usize = 10_000;
const SEED: u64 = 0x5EED_51D0;

fn check_posted<L: MatchList<PostedEntry>>(
    label: &str,
    kind: ScanKind,
    mk: impl Fn() -> L,
    seed: u64,
) {
    let ops = posted_ops(seed, N_OPS);
    if let Err(e) = diff_posted(&mut mk(), DepthMode::Exact, &ops) {
        let min = shrink_ops(&ops, |s| {
            diff_posted(&mut mk(), DepthMode::Exact, s).is_err()
        });
        panic!(
            "{label} under {kind:?}: conformance divergence: {e}\nminimized repro ({} ops):\n{}",
            min.len(),
            render_ops("PostedOp", &min)
        );
    }
}

fn check_umq<L: MatchList<UnexpectedEntry>>(
    label: &str,
    kind: ScanKind,
    mk: impl Fn() -> L,
    seed: u64,
) {
    let ops = umq_ops(seed, N_OPS);
    if let Err(e) = diff_umq(&mut mk(), DepthMode::Exact, &ops) {
        let min = shrink_ops(&ops, |s| diff_umq(&mut mk(), DepthMode::Exact, s).is_err());
        panic!(
            "{label} under {kind:?}: conformance divergence: {e}\nminimized repro ({} ops):\n{}",
            min.len(),
            render_ops("UmqOp", &min)
        );
    }
}

#[test]
fn every_scan_kind_conforms_to_the_oracle() {
    let orig = simd::scan_kind();
    let best = simd::detect_best();
    for (i, kind) in ScanKind::ALL.into_iter().filter(|k| *k <= best).enumerate() {
        assert_eq!(simd::set_scan_kind(kind), kind);
        let seed = SEED.wrapping_add(1000 * i as u64);
        // The baseline walk (which ignores the kind), the LLA bitmap scan
        // at cacheline and deep arities, the full-width 32-slot bitmap, and
        // the windowed large-arity fallback.
        check_posted("baseline", kind, BaselineList::<PostedEntry>::new, seed);
        check_umq(
            "baseline",
            kind,
            BaselineList::<UnexpectedEntry>::new,
            seed ^ 1,
        );
        check_posted("lla-2", kind, Lla::<PostedEntry, 2>::new, seed + 2);
        check_umq("lla-3", kind, Lla::<UnexpectedEntry, 3>::new, seed + 3);
        check_posted("lla-8", kind, Lla::<PostedEntry, 8>::new, seed + 8);
        check_posted("lla-32", kind, Lla::<PostedEntry, 32>::new, seed + 32);
        check_posted("lla-512", kind, Lla::<PostedEntry, 512>::new, seed + 512);
        check_umq(
            "lla-768",
            kind,
            Lla::<UnexpectedEntry, 768>::new,
            seed + 513,
        );
    }
    simd::set_scan_kind(orig);
}
