//! Oracle conformance under every forced prefetch scheme.
//!
//! Software prefetch (`spc_core::prefetch`) is documented as a pure hint:
//! whichever [`PrefetchScheme`] a traversal runs under — no prefetch,
//! stride guesses, the dependent pointer chase, or the adaptive controller
//! that re-decides its lookahead mid-stream — the walk must stay
//! byte-for-byte sink-equivalent and return identical matches. This binary
//! pins that claim at the semantic level: full randomized op streams
//! replayed against the Vec-backed oracle with the process-global scheme
//! forced to each value in turn, so a scheme-dependent divergence in match
//! identity, FIFO arbitration, or depth accounting fails conformance, not
//! just a unit test. The adaptive scheme is the interesting case — its
//! controller mutates per-list state during the walk — and these streams
//! run long enough (10k ops) to cross many [`ADAPTIVE_EPOCH`] boundaries.
//!
//! Everything lives in ONE test function because the scheme is
//! process-global (mirroring `scan_kinds.rs`): sibling tests in this
//! binary would race the override.

use spc_conformance::{
    diff_posted, diff_umq, posted_ops, render_ops, shrink_ops, umq_ops, DepthMode,
};
use spc_core::entry::{PostedEntry, UnexpectedEntry};
use spc_core::list::{BaselineList, Lla, MatchList};
use spc_core::prefetch::{self, PrefetchScheme};

const N_OPS: usize = 10_000;
const SEED: u64 = 0x5EED_FE7C;

fn check_posted<L: MatchList<PostedEntry>>(
    label: &str,
    scheme: PrefetchScheme,
    mk: impl Fn() -> L,
    seed: u64,
) {
    let ops = posted_ops(seed, N_OPS);
    if let Err(e) = diff_posted(&mut mk(), DepthMode::Exact, &ops) {
        let min = shrink_ops(&ops, |s| {
            diff_posted(&mut mk(), DepthMode::Exact, s).is_err()
        });
        panic!(
            "{label} under {scheme:?}: conformance divergence: {e}\nminimized repro ({} ops):\n{}",
            min.len(),
            render_ops("PostedOp", &min)
        );
    }
}

fn check_umq<L: MatchList<UnexpectedEntry>>(
    label: &str,
    scheme: PrefetchScheme,
    mk: impl Fn() -> L,
    seed: u64,
) {
    let ops = umq_ops(seed, N_OPS);
    if let Err(e) = diff_umq(&mut mk(), DepthMode::Exact, &ops) {
        let min = shrink_ops(&ops, |s| diff_umq(&mut mk(), DepthMode::Exact, s).is_err());
        panic!(
            "{label} under {scheme:?}: conformance divergence: {e}\nminimized repro ({} ops):\n{}",
            min.len(),
            render_ops("UmqOp", &min)
        );
    }
}

#[test]
fn every_prefetch_scheme_conforms_to_the_oracle() {
    let orig = prefetch::scheme();
    for (i, scheme) in PrefetchScheme::ALL.into_iter().enumerate() {
        assert_eq!(prefetch::set_scheme(scheme), scheme);
        let seed = SEED.wrapping_add(1000 * i as u64);
        // The baseline list takes both the scalar and (where the CPU
        // supports it) batched walks through the chase/stride blocks. The
        // LLA walk has no software prefetch, so its rows prove it ignores
        // the scheme, the large-arity windowed scan included.
        check_posted("baseline", scheme, BaselineList::<PostedEntry>::new, seed);
        check_umq(
            "baseline",
            scheme,
            BaselineList::<UnexpectedEntry>::new,
            seed ^ 1,
        );
        check_posted("lla-2", scheme, Lla::<PostedEntry, 2>::new, seed + 2);
        check_umq("lla-3", scheme, Lla::<UnexpectedEntry, 3>::new, seed + 3);
        check_posted("lla-8", scheme, Lla::<PostedEntry, 8>::new, seed + 8);
        check_posted("lla-32", scheme, Lla::<PostedEntry, 32>::new, seed + 32);
        check_posted("lla-512", scheme, Lla::<PostedEntry, 512>::new, seed + 512);
        check_umq(
            "lla-768",
            scheme,
            Lla::<UnexpectedEntry, 768>::new,
            seed + 513,
        );
    }
    prefetch::set_scheme(orig);
}
