//! Differential properties: SIMD slab kernels vs the scalar packed scan.
//!
//! The vector kernels in `spc_core::simd` must be **bit-for-bit** equivalent
//! to the scalar packed loop they accelerate — same candidate bitmaps, same
//! hole bitmaps, same first-hit index, and (because every `AccessSink`
//! charge in the list walks is derived from those bitmaps) identical
//! simulated memory traces. These properties drive every node width
//! `2..=32`, every occupancy pattern (exhaustive up to 8 slots, sampled
//! above), and the full wildcard/masked probe space from `packed_props.rs`
//! through all three scan kinds and require exact agreement. Driven by the
//! in-repo seeded PRNG so failures reproduce exactly.

use spc_core::addr::AddrSpace;
use spc_core::entry::{Element, Envelope, PostedEntry, RecvSpec, UnexpectedEntry};
use spc_core::list::{BaselineList, Lla, MatchList};
use spc_core::simd::{self, ScanKind};
use spc_core::sink::{Access, TraceSink};
use spc_core::{ANY_SOURCE, ANY_TAG};
use spc_rng::{Rng, SeedableRng, StdRng};

/// The kinds this CPU can execute (always includes `Portable`; CI's
/// forced-portable leg still covers the scalar path when the host has AVX2).
fn supported_kinds() -> Vec<ScanKind> {
    let best = simd::detect_best();
    ScanKind::ALL.into_iter().filter(|k| *k <= best).collect()
}

fn biased_tag(rng: &mut StdRng) -> i32 {
    match rng.gen_range(0..4u32) {
        0 => rng.gen_range(0..4i32),
        1 => rng.gen_range(0..1024i32),
        2 => i32::MAX - rng.gen_range(0..2i32),
        _ => rng.gen_range(0..i32::MAX),
    }
}

fn biased_rank(rng: &mut StdRng) -> i32 {
    match rng.gen_range(0..4u32) {
        0 => rng.gen_range(0..4i32),
        1 => rng.gen_range(32_000..70_000i32),
        2 => 65_535,
        _ => rng.gen_range(0..1_000_000i32),
    }
}

fn biased_ctx(rng: &mut StdRng) -> u16 {
    match rng.gen_range(0..3u32) {
        0 => 0,
        1 => rng.gen_range(0..3u32) as u16,
        // Includes u16::MAX, the reserved hole context — probes carrying it
        // are exactly what the kernels' hole bitmaps must not confuse with
        // candidate matches.
        _ => (rng.next_u64() & 0xFFFF) as u16,
    }
}

/// A live (never-hole) posted entry covering every wildcard combination.
fn live_posted(rng: &mut StdRng, req: u64) -> PostedEntry {
    let rank = if rng.gen_bool(0.25) {
        ANY_SOURCE
    } else {
        biased_rank(rng)
    };
    let tag = if rng.gen_bool(0.25) {
        ANY_TAG
    } else {
        biased_tag(rng)
    };
    PostedEntry::from_spec(RecvSpec::new(rank, tag, biased_ctx(rng)), req)
}

/// Degenerate raw envelopes included (negative fields, reserved context).
fn random_envelope(rng: &mut StdRng) -> Envelope {
    let rank = if rng.gen_range(0..16u32) == 0 {
        -biased_rank(rng)
    } else {
        biased_rank(rng)
    };
    let tag = if rng.gen_range(0..16u32) == 0 {
        -biased_tag(rng)
    } else {
        biased_tag(rng)
    };
    Envelope {
        rank,
        tag,
        context_id: biased_ctx(rng),
    }
}

fn random_spec(rng: &mut StdRng) -> RecvSpec {
    let rank = if rng.gen_bool(0.25) {
        ANY_SOURCE
    } else {
        biased_rank(rng)
    };
    let tag = if rng.gen_bool(0.25) {
        ANY_TAG
    } else {
        biased_tag(rng)
    };
    RecvSpec::new(rank, tag, biased_ctx(rng))
}

/// Occupancy patterns for a `width`-slot slab: exhaustive when the space is
/// small (`<= 8` slots), sampled (plus the all-live / all-hole / alternating
/// edges) above.
fn occupancy_patterns(width: usize, rng: &mut StdRng) -> Vec<u32> {
    let full: u32 = (u32::MAX as u64 >> (32 - width)) as u32;
    if width <= 8 {
        (0..=full).collect()
    } else {
        let mut v = vec![
            0,
            full,
            0x5555_5555 & full,
            0xAAAA_AAAA & full,
            1,
            1 << (width - 1),
        ];
        for _ in 0..64 {
            v.push((rng.next_u64() as u32) & full);
        }
        v
    }
}

#[test]
fn posted_slab_scans_agree_for_every_width_and_occupancy() {
    let kinds = supported_kinds();
    let mut rng = StdRng::seed_from_u64(0x51D0_0001);
    let mut hits = 0u64;
    for width in 2..=32usize {
        for pattern in occupancy_patterns(width, &mut rng) {
            let slab: Vec<PostedEntry> = (0..width)
                .map(|i| {
                    if pattern & (1 << i) != 0 {
                        live_posted(&mut rng, i as u64)
                    } else {
                        PostedEntry::hole()
                    }
                })
                .collect();
            for _ in 0..3 {
                let probe = random_envelope(&mut rng).packed();
                let want = simd::scan_slab(ScanKind::Portable, &slab, &probe);
                // The hole bitmap is exactly the pattern's complement, and a
                // live candidate only ever sits on a live slot.
                let full: u32 = (u32::MAX as u64 >> (32 - width)) as u32;
                assert_eq!(want.holes, !pattern & full, "width {width}");
                for &k in &kinds {
                    let got = simd::scan_slab(k, &slab, &probe);
                    assert_eq!(got, want, "{k:?} width {width} pattern {pattern:#x}");
                    assert_eq!(
                        simd::scan_candidates(k, &slab, &probe),
                        want.cand,
                        "{k:?} width {width} pattern {pattern:#x}"
                    );
                    // First live hit — the index the LLA walk acts on.
                    let live = got.cand & !got.holes;
                    assert_eq!(live, want.cand & !want.holes);
                    if live != 0 {
                        assert_eq!(
                            live.trailing_zeros(),
                            (want.cand & !want.holes).trailing_zeros()
                        );
                    }
                }
                hits += u64::from((want.cand & !want.holes) != 0);
            }
        }
    }
    assert!(hits > 500, "only {hits} slab hits; generator bias broken");
}

#[test]
fn unexpected_slab_scans_agree_for_every_width_and_occupancy() {
    let kinds = supported_kinds();
    let mut rng = StdRng::seed_from_u64(0x51D0_0002);
    let mut hits = 0u64;
    for width in 2..=32usize {
        for pattern in occupancy_patterns(width, &mut rng) {
            let slab: Vec<UnexpectedEntry> = (0..width)
                .map(|i| {
                    if pattern & (1 << i) != 0 {
                        UnexpectedEntry::from_envelope(random_envelope(&mut rng), i as u64)
                    } else {
                        UnexpectedEntry::hole()
                    }
                })
                .collect();
            for _ in 0..3 {
                let probe = random_spec(&mut rng).packed();
                let want = simd::scan_slab(ScanKind::Portable, &slab, &probe);
                for &k in &kinds {
                    assert_eq!(
                        simd::scan_slab(k, &slab, &probe),
                        want,
                        "{k:?} width {width} pattern {pattern:#x}"
                    );
                }
                hits += u64::from((want.cand & !want.holes) != 0);
            }
        }
    }
    assert!(hits > 300, "only {hits} slab hits; generator bias broken");
}

/// One probe step's full observable outcome: match identity, reported
/// depth, and the byte-exact access trace.
type Step = (Option<u64>, u32, Vec<Access>);

/// Runs a fixed seeded script — appends with wildcards, hole punches, then
/// a probe mix of hits/misses/wildcard-only matches — against `list`,
/// recording every search's outcome and trace.
fn run_script<L: MatchList<PostedEntry>>(list: &mut L, seed: u64) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = TraceSink::new();
    // Small alphabet so probes hit at varied FIFO positions.
    for i in 0..150u64 {
        let rank = rng.gen_range(0..6i32);
        let tag = rng.gen_range(0..8i32);
        let e = if rng.gen_range(0..8u32) == 0 {
            PostedEntry::from_spec(RecvSpec::new(ANY_SOURCE, tag, 0), i)
        } else {
            PostedEntry::from_spec(RecvSpec::new(rank, tag, 0), i)
        };
        list.append(e, &mut s);
    }
    let mut steps = Vec::new();
    // Punch holes and probe, interleaved: every removal changes the
    // occupancy patterns the next scan sees.
    for _ in 0..120 {
        let probe = Envelope::new(rng.gen_range(0..7i32), rng.gen_range(0..9i32), 0);
        s.clear();
        let r = list.search_remove(&probe, &mut s);
        steps.push((r.found.map(|e| e.request), r.depth, s.trace.clone()));
    }
    // A guaranteed full-length miss exercises the complete walk.
    s.clear();
    let r = list.search_remove(&Envelope::new(99, 99, 9), &mut s);
    steps.push((r.found.map(|e| e.request), r.depth, s.trace.clone()));
    steps
}

fn assert_steps_equal(kind: ScanKind, got: &[Step], want: &[Step], structure: &str) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.0, w.0,
            "{structure} step {i} found differs under {kind:?}"
        );
        assert_eq!(
            g.1, w.1,
            "{structure} step {i} depth differs under {kind:?}"
        );
        assert_eq!(
            g.2, w.2,
            "{structure} step {i} trace differs under {kind:?}"
        );
    }
}

/// One test owns the process-global scan kind (mirrors the prefetch-distance
/// test): under each forced kind, the LLA bitmap path (N = 2, 8, 32), the
/// windowed large-arity path (N = 48 spans two windows), and the baseline
/// walk (which ignores the kind) must produce byte-identical access traces,
/// match identities, and depths.
#[test]
fn forced_kinds_produce_identical_traces_on_lists() {
    let orig = simd::scan_kind();
    let kinds = supported_kinds();

    let mut want: Option<[Vec<Step>; 5]> = None;
    for &k in &kinds {
        assert_eq!(simd::set_scan_kind(k), k);
        let mut lla2: Lla<PostedEntry, 2> = Lla::with_addr(AddrSpace::contiguous(1 << 30));
        let mut lla8: Lla<PostedEntry, 8> = Lla::with_addr(AddrSpace::contiguous(1 << 31));
        let mut lla32: Lla<PostedEntry, 32> = Lla::with_addr(AddrSpace::contiguous(1 << 32));
        let mut lla48: Lla<PostedEntry, 48> = Lla::with_addr(AddrSpace::contiguous(1 << 33));
        let mut base: BaselineList<PostedEntry> =
            BaselineList::with_addr(AddrSpace::contiguous(1 << 34));
        let got = [
            run_script(&mut lla2, 0x51D0_0010),
            run_script(&mut lla8, 0x51D0_0011),
            run_script(&mut lla32, 0x51D0_0012),
            run_script(&mut lla48, 0x51D0_0013),
            run_script(&mut base, 0x51D0_0014),
        ];
        // The scripts must actually exercise hits, not just misses.
        for (g, name) in got
            .iter()
            .zip(["lla2", "lla8", "lla32", "lla48", "baseline"])
        {
            let hits = g.iter().filter(|s| s.0.is_some()).count();
            assert!(hits > 20, "{name}: only {hits} hits under {k:?}");
        }
        match &want {
            None => want = Some(got),
            Some(w) => {
                for (i, name) in ["lla2", "lla8", "lla32", "lla48", "baseline"]
                    .iter()
                    .enumerate()
                {
                    assert_steps_equal(k, &got[i], &w[i], name);
                }
            }
        }
    }

    simd::set_scan_kind(orig);
}
