//! SIMD batch matching over contiguous entry slabs.
//! spc-scope: hot-path
//!
//! The packed match test (PR 3) is one `XOR + AND + compare` per entry; an
//! LLA node is a contiguous slab of such entries — exactly the shape
//! SSE2/AVX2 wants. The kernels here test 2 (`u64x2`, SSE2) or 4 (`u64x4`,
//! AVX2) packed key/mask pairs per instruction against the probe, reduce
//! each vector of 64-bit compare results to bits via `movemask`, and hand
//! back a candidate bitmap the caller ANDs with the node's occupancy bitmap
//! and bit-scans to the first live hit.
//!
//! Three scan kinds exist, selected once per process:
//!
//! * [`ScanKind::Portable`] — the scalar packed loop, compiled everywhere;
//! * [`ScanKind::Simd128`] — SSE2 pairs (baseline on every x86-64, no
//!   runtime detection needed);
//! * [`ScanKind::Simd256`] — AVX2 quads (runtime
//!   `is_x86_feature_detected!` of both `avx2` and `popcnt`: the LLA walk
//!   compiled for this kind also counts its depth with `popcnt`).
//!
//! All three are **bit-for-bit equivalent**: same candidate bitmaps, same
//! first-hit index, and — because [`crate::sink::AccessSink`] charges are
//! derived from those bitmaps by the caller — identical simulated memory
//! traces. The differential suite in `tests/simd_props.rs` pins this for
//! every node width, occupancy pattern, and wildcard/masked probe shape.
//!
//! The selection is configurable through the `SPC_SCAN_KIND` environment
//! variable (`portable`, `simd128` or `simd256`; read once per process,
//! unparsable values reported once on stderr) or programmatically via
//! [`set_scan_kind`] for in-process sweeps, mirroring
//! `SPC_PREFETCH_DIST` / [`crate::prefetch::set_distance`]. Forcing a kind
//! the CPU cannot run is downgraded to the best supported kind, with a
//! one-time stderr note rather than an illegal-instruction fault.
//!
//! ## Why masks need a word transform
//!
//! The vector kernels load each entry's **raw second word** (bytes 8..16)
//! and must turn it into [`crate::entry::Element::packed_mask`] without a
//! scalar call per lane. Both element types admit the same affine form
//! `packed_mask == (word1 & MASK_WORD_AND) | MASK_WORD_OR`:
//!
//! * `PostedEntry`: word1 is `tag_mask | (rank_mask << 32)`; the packed
//!   mask keeps the low 48 bits of that (rank masks are 16-bit) and always
//!   constrains the context bits, so `AND = 0x0000FFFF_FFFFFFFF`,
//!   `OR = 0xFFFF << 48`.
//! * `UnexpectedEntry`: word1 is the payload handle — matching garbage —
//!   and the packed mask is the constant `!0`, so `AND = 0`, `OR = !0`.
//!
//! The constants live on the [`Element`] trait and the contract is pinned
//! by transmute property tests next to the packed-key prefix-byte pin.

use crate::entry::{packed_matches, Element, PackedProbe};
use crate::envcfg::EnvSwitch;
use std::sync::Once;

/// Key bits that identify an in-band hole: the context-id field (bits
/// 48..64) equal to the reserved hole context. `Element::is_hole` is
/// defined as exactly that context comparison, so the bit test below is an
/// identity, not an approximation.
pub(crate) const HOLE_KEY_BITS: u64 = 0xFFFF_u64 << 48;

/// Which slab-scan kernel the process uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ScanKind {
    /// Scalar packed loop — compiled on every architecture.
    Portable,
    /// SSE2 `u64x2` kernel (x86-64 baseline, always safe to run there).
    Simd128,
    /// AVX2 `u64x4` kernel (requires runtime detection of AVX2 and POPCNT).
    Simd256,
}

impl ScanKind {
    /// Stable lowercase name, used by `SPC_SCAN_KIND` and the bench gate's
    /// `scan_kind` JSON column.
    pub fn as_str(self) -> &'static str {
        match self {
            ScanKind::Portable => "portable",
            ScanKind::Simd128 => "simd128",
            ScanKind::Simd256 => "simd256",
        }
    }

    /// Parses the `SPC_SCAN_KIND` spelling; `None` on anything else.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "portable" => Some(ScanKind::Portable),
            "simd128" => Some(ScanKind::Simd128),
            "simd256" => Some(ScanKind::Simd256),
            _ => None,
        }
    }

    /// All kinds, weakest first.
    pub const ALL: [ScanKind; 3] = [ScanKind::Portable, ScanKind::Simd128, ScanKind::Simd256];

    /// How many packed keys one probe test consumes under this kind (the
    /// batch width callers should gather before calling [`match_keys`]).
    pub const fn key_batch(self) -> usize {
        match self {
            ScanKind::Portable => 1,
            ScanKind::Simd128 => 2,
            ScanKind::Simd256 => 4,
        }
    }

    fn index(self) -> usize {
        match self {
            ScanKind::Portable => 0,
            ScanKind::Simd128 => 1,
            ScanKind::Simd256 => 2,
        }
    }

    fn from_index(i: usize) -> Self {
        match i {
            0 => ScanKind::Portable,
            1 => ScanKind::Simd128,
            _ => ScanKind::Simd256,
        }
    }
}

/// The tri-state forced/detected switch behind `SPC_SCAN_KIND` — see
/// [`crate::envcfg`] for the shared once-parsed / one-time-diagnostic /
/// in-process-override contract. The forced bit matters here: callers
/// whose vector path only pays off situationally (the baseline list's
/// batched gather walk) engage it under a forced kind but not under mere
/// detection — see [`scan_kind_forced`].
static KIND: EnvSwitch = EnvSwitch::new("SPC_SCAN_KIND");
static DOWNGRADE_DIAGNOSTIC: Once = Once::new();

/// The best kind this CPU can actually execute.
#[cfg(target_arch = "x86_64")]
pub fn detect_best() -> ScanKind {
    best_for(
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("popcnt"),
    )
}

/// The best kind for a CPU with the given features. `Simd256` needs both:
/// the AVX2 LLA walk is compiled with `popcnt` enabled.
#[cfg(target_arch = "x86_64")]
fn best_for(avx2: bool, popcnt: bool) -> ScanKind {
    if avx2 && popcnt {
        ScanKind::Simd256
    } else {
        // SSE2 is part of the x86-64 baseline ISA: no detection needed.
        ScanKind::Simd128
    }
}

/// The best kind this CPU can actually execute (portable fallback: no
/// vector kernels are compiled off x86-64).
#[cfg(not(target_arch = "x86_64"))]
pub fn detect_best() -> ScanKind {
    ScanKind::Portable
}

/// Clamps a requested kind to what the CPU supports, reporting a downgrade
/// once on stderr (a forced-but-unsupported kind must degrade, not fault).
fn clamp_supported(k: ScanKind) -> ScanKind {
    clamp_to(k, detect_best())
}

fn clamp_to(k: ScanKind, best: ScanKind) -> ScanKind {
    if k > best {
        DOWNGRADE_DIAGNOSTIC.call_once(|| {
            eprintln!(
                "spc-core: scan kind {:?} is not supported on this CPU; \
                 downgrading to {:?}",
                k.as_str(),
                best.as_str()
            );
        });
        best
    } else {
        k
    }
}

/// The process-wide slab-scan kind.
///
/// **Once-parsed contract:** `SPC_SCAN_KIND` is consulted exactly once, on
/// the first call; later changes to the environment are not observed. An
/// unparsable value falls back to [`detect_best`] and emits a one-time
/// `stderr` diagnostic. In-process sweeps (the bench gate measuring every
/// kind in one run) use [`set_scan_kind`].
#[inline]
pub fn scan_kind() -> ScanKind {
    ScanKind::from_index(kind_switch().0)
}

/// The scan kind, but only when it was *explicitly requested* — via
/// `SPC_SCAN_KIND` or [`set_scan_kind`] — rather than auto-detected.
/// Returns `None` under pure detection.
///
/// The slab scans ([`scan_slab`] call sites) win under every SIMD kind and
/// honor [`scan_kind`] unconditionally. The baseline list's batched gather
/// walk does **not** win on detected hardware alone (the dependent
/// next-pointer chase costs more than the vector compare saves — measured
/// in `matching_gate`, documented in `EXPERIMENTS.md`), so it engages only
/// through this accessor: benchmarks and tests force a kind to measure the
/// path; production defaults keep the scalar chase.
#[inline]
pub fn scan_kind_forced() -> Option<ScanKind> {
    let (i, forced) = kind_switch();
    forced.then(|| ScanKind::from_index(i))
}

/// The `(kind index, forced)` pair from the shared switch; parse clamps an
/// explicitly requested kind to CPU support before it is installed, so the
/// dispatcher never sees an unexecutable kind.
#[inline]
fn kind_switch() -> (usize, bool) {
    KIND.get(
        |s| ScanKind::parse(s).map(|k| clamp_supported(k).index()),
        || detect_best().index(),
        "one of portable|simd128|simd256",
        "detected best",
    )
}

/// Overrides the scan kind for the rest of the process (clamped to what the
/// CPU supports; returns the kind actually installed). Exists for
/// in-process sweeps — the gate measures every kind in one run, which the
/// once-parsed env contract cannot express. All kinds are bit-for-bit
/// equivalent, so flipping mid-run never changes match semantics. The
/// installed kind counts as *forced* (see [`scan_kind_forced`]).
pub fn set_scan_kind(k: ScanKind) -> ScanKind {
    let k = clamp_supported(k);
    KIND.set(k.index());
    k
}

/// Result of scanning one slab: per-slot bitmaps (bit `i` ⟺ `entries[i]`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlabScan {
    /// Slots whose packed key/mask matches the probe (holes included —
    /// callers mask with occupancy or [`SlabScan::holes`]).
    pub cand: u32,
    /// Slots holding in-band hole markers.
    pub holes: u32,
}

/// Whether the vector kernels can walk `E`'s in-memory layout directly:
/// word-granular stride and word-aligned fields (both entry types satisfy
/// this; a hypothetical packed element would fall back to the scalar loop).
const fn vectorizable<E: Element>() -> bool {
    core::mem::size_of::<E>().is_multiple_of(8)
        && core::mem::size_of::<E>() >= 16
        && core::mem::align_of::<E>() >= 8
}

/// Scans up to 32 slab entries, returning candidate and hole bitmaps.
/// Used by the large-arity LLA path, which has no occupancy register and
/// masks candidates with `!holes` instead.
#[inline(always)]
pub fn scan_slab<E: Element>(kind: ScanKind, entries: &[E], probe: &PackedProbe) -> SlabScan {
    debug_assert!(entries.len() <= 32);
    scan_dispatch::<E, true>(kind, entries, probe)
}

/// Scans up to 32 slab entries, returning only the candidate bitmap.
/// Used by the bitmap LLA path (`N <= 32`), which masks with the node's
/// occupancy register and never needs the hole bitmap.
#[inline(always)]
pub fn scan_candidates<E: Element>(kind: ScanKind, entries: &[E], probe: &PackedProbe) -> u32 {
    debug_assert!(entries.len() <= 32);
    scan_dispatch::<E, false>(kind, entries, probe).cand
}

#[inline(always)]
fn scan_dispatch<E: Element, const HOLES: bool>(
    kind: ScanKind,
    entries: &[E],
    probe: &PackedProbe,
) -> SlabScan {
    #[cfg(target_arch = "x86_64")]
    if vectorizable::<E>() {
        match kind {
            // SAFETY: `Simd256` is only ever installed by `clamp_supported`
            // after `is_x86_feature_detected!` reported both `avx2` and
            // `popcnt` (`detect_best`), so the AVX2 kernel cannot execute on
            // a CPU without them.
            ScanKind::Simd256 => return unsafe { scan_slab_avx2::<E, HOLES>(entries, probe) },
            // SAFETY: SSE2 is part of the x86-64 baseline ISA.
            ScanKind::Simd128 => return unsafe { scan_slab_sse2::<E, HOLES>(entries, probe) },
            ScanKind::Portable => {}
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = kind;
    scan_slab_portable::<E, HOLES>(entries, probe)
}

/// The scalar reference kernel: exactly the branchless accumulate loop the
/// pre-SIMD bitmap scan used, plus the hole bitmap when requested.
fn scan_slab_portable<E: Element, const HOLES: bool>(
    entries: &[E],
    probe: &PackedProbe,
) -> SlabScan {
    let mut cand: u32 = 0;
    let mut holes: u32 = 0;
    for (i, e) in entries.iter().enumerate() {
        let m = packed_matches(e.packed_key(), e.packed_mask(), probe) as u32;
        cand |= m << i;
        if HOLES {
            holes |= (e.is_hole() as u32) << i;
        }
    }
    SlabScan { cand, holes }
}

/// Tests up to 32 gathered packed key/mask pairs against the probe,
/// returning a match bitmap (bit `i` ⟺ `keys[i]`). Callers gather keys
/// from non-contiguous storage — the baseline list batches
/// [`ScanKind::key_batch`] heap nodes per call.
#[inline(always)]
pub fn match_keys(kind: ScanKind, keys: &[u64], masks: &[u64], probe: &PackedProbe) -> u32 {
    debug_assert_eq!(keys.len(), masks.len());
    debug_assert!(keys.len() <= 32);
    #[cfg(target_arch = "x86_64")]
    match kind {
        // SAFETY: `Simd256` is only ever installed by `clamp_supported`
        // after `is_x86_feature_detected!` reported both `avx2` and
        // `popcnt` (`detect_best`).
        ScanKind::Simd256 => return unsafe { match_keys_avx2(keys, masks, probe) },
        // SAFETY: SSE2 is part of the x86-64 baseline ISA.
        ScanKind::Simd128 => return unsafe { match_keys_sse2(keys, masks, probe) },
        ScanKind::Portable => {}
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = kind;
    match_keys_portable(keys, masks, probe)
}

fn match_keys_portable(keys: &[u64], masks: &[u64], probe: &PackedProbe) -> u32 {
    let mut out = 0u32;
    for i in 0..keys.len() {
        out |= (packed_matches(keys[i], masks[i], probe) as u32) << i;
    }
    out
}

// ---------------------------------------------------------------------------
// x86-64 vector kernels.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use core::arch::x86_64::*;

    /// Per-lane zero flags for a `u64x2`: lane `l` becomes all-ones ⟺ it
    /// was all-zero.
    ///
    /// SSE2 has no 64-bit compare, so equality-to-zero is built from two
    /// 32-bit compares: a 64-bit lane is zero iff both its 32-bit halves
    /// compare equal to zero, so AND the `cmpeq_epi32` result with its
    /// halves swapped (`shuffle 0xB1` = lanes `[1,0,3,2]`).
    ///
    /// # Safety
    /// Caller must ensure SSE2 is available (x86-64 baseline: always).
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn zero_flags64_sse2(v: __m128i) -> __m128i {
        let eq32 = _mm_cmpeq_epi32(v, _mm_setzero_si128());
        _mm_and_si128(eq32, _mm_shuffle_epi32::<0xB1>(eq32))
    }

    /// Reduces a `u64x2` to 2 bits: bit `l` set ⟺ lane `l` is all-zero
    /// (the [`zero_flags64_sse2`] flags read out through `movemask_pd`).
    ///
    /// # Safety
    /// Caller must ensure SSE2 is available (x86-64 baseline: always).
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn movemask_zero64_sse2(v: __m128i) -> u32 {
        // SAFETY: same SSE2 precondition as this function's own contract.
        unsafe { _mm_movemask_pd(_mm_castsi128_pd(zero_flags64_sse2(v))) as u32 }
    }

    /// SSE2 slab scan: two entries per step. Each entry's packed key and
    /// mask word are *adjacent* (words 0 and 1), so one unaligned 128-bit
    /// load per entry captures both; a pair of unpacks then separates
    /// `[key0, key1]` from `[word1_0, word1_1]` — no scalar gather, the
    /// match test and reduction stay fully vectorized.
    ///
    /// The probe mask is folded into the affine mask-transform constants
    /// up front: `mask & pmask = (word1 & (AND & pmask)) | (OR & pmask)`,
    /// saving one AND per step.
    ///
    /// # Safety
    /// Caller must ensure SSE2 is available and `vectorizable::<E>()`
    /// holds (word-granular, word-aligned entry layout).
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn scan_slab_sse2<E: Element, const HOLES: bool>(
        entries: &[E],
        probe: &PackedProbe,
    ) -> SlabScan {
        let n = entries.len();
        let w = core::mem::size_of::<E>() / 8;
        let base = entries.as_ptr() as *const i64;
        let pk = _mm_set1_epi64x(probe.key as i64);
        let mand = _mm_set1_epi64x((E::MASK_WORD_AND & probe.mask) as i64);
        let mor = _mm_set1_epi64x((E::MASK_WORD_OR & probe.mask) as i64);
        let hbits = _mm_set1_epi64x(HOLE_KEY_BITS as i64);
        let mut cand = 0u32;
        let mut holes = 0u32;
        let mut i = 0usize;
        // Main step: four slots per iteration, two `u64x2` tests whose
        // zero-flags reduce through ONE `movemask_ps`. Each 64-bit lane of
        // `zero_flags64_sse2`'s result is all-ones or all-zero, so picking
        // the high 32-bit half of every lane (`shuffle_ps` imm `0xDD` =
        // lanes [1, 3] of each source) packs both pairs' flags into four
        // sign bits in slot order.
        while i + 4 <= n {
            // SAFETY: slots `i..i + 4` are in bounds of `entries`;
            // `vectorizable::<E>()` guarantees each entry is at least 16
            // bytes with words 0 and 1 (key, mask word) leading, so the
            // 16-byte loads stay inside their entries.
            let (a, b, c, d) = unsafe {
                (
                    _mm_loadu_si128(base.add(i * w) as *const __m128i),
                    _mm_loadu_si128(base.add((i + 1) * w) as *const __m128i),
                    _mm_loadu_si128(base.add((i + 2) * w) as *const __m128i),
                    _mm_loadu_si128(base.add((i + 3) * w) as *const __m128i),
                )
            };
            // SAFETY: SSE2 register arithmetic only.
            unsafe {
                let k01 = _mm_unpacklo_epi64(a, b); // [key0,   key1]
                let w01 = _mm_unpackhi_epi64(a, b); // [word1_0, word1_1]
                let k23 = _mm_unpacklo_epi64(c, d);
                let w23 = _mm_unpackhi_epi64(c, d);
                // mask & pmask = (word1 & AND') | OR'  (see doc above).
                let m01 = _mm_or_si128(_mm_and_si128(w01, mand), mor);
                let m23 = _mm_or_si128(_mm_and_si128(w23, mand), mor);
                let d01 = _mm_and_si128(_mm_xor_si128(k01, pk), m01);
                let d23 = _mm_and_si128(_mm_xor_si128(k23, pk), m23);
                let e01 = zero_flags64_sse2(d01);
                let e23 = zero_flags64_sse2(d23);
                let comb = _mm_shuffle_ps::<0xDD>(_mm_castsi128_ps(e01), _mm_castsi128_ps(e23));
                cand |= (_mm_movemask_ps(comb) as u32) << i;
                if HOLES {
                    // Hole ⟺ the context bits of the key are all-ones.
                    let h01 = zero_flags64_sse2(_mm_xor_si128(_mm_and_si128(k01, hbits), hbits));
                    let h23 = zero_flags64_sse2(_mm_xor_si128(_mm_and_si128(k23, hbits), hbits));
                    let hc = _mm_shuffle_ps::<0xDD>(_mm_castsi128_ps(h01), _mm_castsi128_ps(h23));
                    holes |= (_mm_movemask_ps(hc) as u32) << i;
                }
            }
            i += 4;
        }
        if i + 2 <= n {
            // SAFETY: slots `i` and `i + 1` are in bounds of `entries`;
            // same 16-byte in-entry load argument as the main step.
            let (a, b) = unsafe {
                (
                    _mm_loadu_si128(base.add(i * w) as *const __m128i),
                    _mm_loadu_si128(base.add((i + 1) * w) as *const __m128i),
                )
            };
            // SAFETY: SSE2 register arithmetic only.
            unsafe {
                let k = _mm_unpacklo_epi64(a, b);
                let mraw = _mm_unpackhi_epi64(a, b);
                let m = _mm_or_si128(_mm_and_si128(mraw, mand), mor);
                let diff = _mm_and_si128(_mm_xor_si128(k, pk), m);
                cand |= movemask_zero64_sse2(diff) << i;
                if HOLES {
                    let h = _mm_xor_si128(_mm_and_si128(k, hbits), hbits);
                    holes |= movemask_zero64_sse2(h) << i;
                }
            }
            i += 2;
        }
        if i < n {
            // Odd tail: one scalar packed test.
            let e = &entries[i];
            cand |= (packed_matches(e.packed_key(), e.packed_mask(), probe) as u32) << i;
            if HOLES {
                holes |= (e.is_hole() as u32) << i;
            }
        }
        SlabScan { cand, holes }
    }

    /// Un-swizzles a 4-bit AVX2 lane bitmap back to slot order.
    ///
    /// The AVX2 slab scan builds its vectors with lane-wise
    /// `unpacklo/hi_epi64` over two `[key, word1]` entry pairs per
    /// 128-bit lane, which lands slots in register lane order
    /// `[0, 2, 1, 3]`; swapping bits 1 and 2 of the movemask restores
    /// slot order.
    #[inline(always)]
    fn unswizzle4(m: u32) -> u32 {
        (m & 0b1001) | ((m & 0b0010) << 1) | ((m & 0b0100) >> 1)
    }

    /// AVX2 slab scan: four entries per step (see [`scan_slab_sse2`] for
    /// the adjacent key/mask-word load trick and the probe-mask folding);
    /// the 64-bit compare is native (`_mm256_cmpeq_epi64`). Two entries'
    /// 16-byte heads are concatenated per 256-bit register, so the
    /// unpacks separate keys from mask words in lane order `[0, 2, 1, 3]`
    /// — [`unswizzle4`] puts the movemask bits back in slot order.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available (runtime-detected) and
    /// `vectorizable::<E>()` holds.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scan_slab_avx2<E: Element, const HOLES: bool>(
        entries: &[E],
        probe: &PackedProbe,
    ) -> SlabScan {
        let n = entries.len();
        let w = core::mem::size_of::<E>() / 8;
        let base = entries.as_ptr() as *const i64;
        let pk = _mm256_set1_epi64x(probe.key as i64);
        let mand = _mm256_set1_epi64x((E::MASK_WORD_AND & probe.mask) as i64);
        let mor = _mm256_set1_epi64x((E::MASK_WORD_OR & probe.mask) as i64);
        let hbits = _mm256_set1_epi64x(HOLE_KEY_BITS as i64);
        let zero = _mm256_setzero_si256();
        let mut cand = 0u32;
        let mut holes = 0u32;
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY: slots `i..i + 4` are in bounds of `entries`;
            // `vectorizable::<E>()` guarantees each entry is at least 16
            // bytes with words 0 and 1 (key, mask word) leading, so the
            // 16-byte loads stay inside their entries.
            let (a, b, c, d) = unsafe {
                (
                    _mm_loadu_si128(base.add(i * w) as *const __m128i),
                    _mm_loadu_si128(base.add((i + 1) * w) as *const __m128i),
                    _mm_loadu_si128(base.add((i + 2) * w) as *const __m128i),
                    _mm_loadu_si128(base.add((i + 3) * w) as *const __m128i),
                )
            };
            // [k0, w0, k1, w1] / [k2, w2, k3, w3].
            let v01 = _mm256_inserti128_si256::<1>(_mm256_castsi128_si256(a), b);
            let v23 = _mm256_inserti128_si256::<1>(_mm256_castsi128_si256(c), d);
            // Lane-wise unpack: slots land in order [0, 2, 1, 3].
            let k = _mm256_unpacklo_epi64(v01, v23); // [k0, k2, k1, k3]
            let mraw = _mm256_unpackhi_epi64(v01, v23); // [w0, w2, w1, w3]
            let m = _mm256_or_si256(_mm256_and_si256(mraw, mand), mor);
            let diff = _mm256_and_si256(_mm256_xor_si256(k, pk), m);
            let eq = _mm256_cmpeq_epi64(diff, zero);
            cand |= unswizzle4(_mm256_movemask_pd(_mm256_castsi256_pd(eq)) as u32 & 0xF) << i;
            if HOLES {
                let h = _mm256_xor_si256(_mm256_and_si256(k, hbits), hbits);
                let heq = _mm256_cmpeq_epi64(h, zero);
                holes |= unswizzle4(_mm256_movemask_pd(_mm256_castsi256_pd(heq)) as u32 & 0xF) << i;
            }
            i += 4;
        }
        if i < n {
            // 1–3 remaining entries: finish with the SSE2 kernel (AVX2
            // implies SSE2), shifted into place.
            // SAFETY: SSE2 is implied by AVX2; the sub-slice keeps the
            // layout preconditions.
            let tail = unsafe { scan_slab_sse2::<E, HOLES>(&entries[i..], probe) };
            cand |= tail.cand << i;
            holes |= tail.holes << i;
        }
        SlabScan { cand, holes }
    }

    /// SSE2 gathered-key test: contiguous `keys`/`masks` arrays, two pairs
    /// per step via unaligned vector loads.
    ///
    /// # Safety
    /// Caller must ensure SSE2 is available (x86-64 baseline: always).
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn match_keys_sse2(keys: &[u64], masks: &[u64], probe: &PackedProbe) -> u32 {
        let n = keys.len();
        let pk = _mm_set1_epi64x(probe.key as i64);
        let pm = _mm_set1_epi64x(probe.mask as i64);
        let mut out = 0u32;
        let mut i = 0usize;
        while i + 2 <= n {
            // SAFETY: `i + 2 <= n` keeps both 16-byte loads inside the
            // slices; `loadu` has no alignment requirement.
            unsafe {
                let k = _mm_loadu_si128(keys.as_ptr().add(i) as *const __m128i);
                let m = _mm_loadu_si128(masks.as_ptr().add(i) as *const __m128i);
                let diff = _mm_and_si128(_mm_xor_si128(k, pk), _mm_and_si128(m, pm));
                out |= movemask_zero64_sse2(diff) << i;
            }
            i += 2;
        }
        if i < n {
            out |= (packed_matches(keys[i], masks[i], probe) as u32) << i;
        }
        out
    }

    /// AVX2 gathered-key test: four pairs per step.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available (runtime-detected).
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn match_keys_avx2(keys: &[u64], masks: &[u64], probe: &PackedProbe) -> u32 {
        let n = keys.len();
        let pk = _mm256_set1_epi64x(probe.key as i64);
        let pm = _mm256_set1_epi64x(probe.mask as i64);
        let zero = _mm256_setzero_si256();
        let mut out = 0u32;
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY: `i + 4 <= n` keeps both 32-byte loads inside the
            // slices; `loadu` has no alignment requirement.
            unsafe {
                let k = _mm256_loadu_si256(keys.as_ptr().add(i) as *const __m256i);
                let m = _mm256_loadu_si256(masks.as_ptr().add(i) as *const __m256i);
                let diff = _mm256_and_si256(_mm256_xor_si256(k, pk), _mm256_and_si256(m, pm));
                let eq = _mm256_cmpeq_epi64(diff, zero);
                out |= (_mm256_movemask_pd(_mm256_castsi256_pd(eq)) as u32 & 0xF) << i;
            }
            i += 4;
        }
        if i < n {
            // SAFETY: SSE2 is implied by AVX2.
            out |= unsafe { match_keys_sse2(&keys[i..], &masks[i..], probe) } << i;
        }
        out
    }
}

#[cfg(target_arch = "x86_64")]
use x86::{match_keys_avx2, match_keys_sse2, scan_slab_avx2, scan_slab_sse2};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{Envelope, PostedEntry, RecvSpec, UnexpectedEntry};

    #[test]
    fn parse_round_trips_and_rejects_garbage() {
        for k in ScanKind::ALL {
            assert_eq!(ScanKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(ScanKind::parse("SIMD256"), None);
        assert_eq!(ScanKind::parse("avx2"), None);
        assert_eq!(ScanKind::parse(""), None);
    }

    #[test]
    fn clamp_never_exceeds_detection_and_batch_is_monotonic() {
        let best = detect_best();
        for k in ScanKind::ALL {
            assert!(clamp_supported(k) <= best);
            assert!(clamp_supported(k) <= k);
        }
        assert_eq!(ScanKind::Portable.key_batch(), 1);
        assert_eq!(ScanKind::Simd128.key_batch(), 2);
        assert_eq!(ScanKind::Simd256.key_batch(), 4);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd256_requires_avx2_and_popcnt() {
        if scan_kind() == ScanKind::Simd256 {
            assert!(std::arch::is_x86_feature_detected!("avx2"));
            assert!(std::arch::is_x86_feature_detected!("popcnt"));
        }
        assert_eq!(best_for(true, true), ScanKind::Simd256);
        assert_eq!(best_for(true, false), ScanKind::Simd128);
        assert_eq!(best_for(false, true), ScanKind::Simd128);
        // A forced `simd256` on an AVX2 CPU without POPCNT downgrades
        // through the same clamp (and one-time diagnostic) as any other
        // unsupported kind.
        assert_eq!(
            clamp_to(ScanKind::Simd256, best_for(true, false)),
            ScanKind::Simd128
        );
    }

    /// One test owns the process-global kind (mirrors the prefetch-distance
    /// test): parsed-once stability, then the `set_scan_kind` override.
    #[test]
    fn kind_is_stable_and_overridable() {
        let k = scan_kind();
        assert_eq!(k, scan_kind(), "parsed once, then constant");
        assert_eq!(set_scan_kind(ScanKind::Portable), ScanKind::Portable);
        assert_eq!(scan_kind(), ScanKind::Portable);
        let best = detect_best();
        assert_eq!(
            set_scan_kind(ScanKind::Simd256),
            best.min(ScanKind::Simd256)
        );
        assert_eq!(set_scan_kind(k), k, "restored for sibling tests");
    }

    fn posted_mixed() -> Vec<PostedEntry> {
        let mut v = Vec::new();
        for i in 0..9i32 {
            let e = match i % 4 {
                0 => PostedEntry::from_spec(RecvSpec::new(i, 10 + i, 3), i as u64),
                1 => PostedEntry::from_spec(RecvSpec::new(crate::ANY_SOURCE, 10 + i, 3), i as u64),
                2 => PostedEntry::from_spec(RecvSpec::new(i, crate::ANY_TAG, 3), i as u64),
                _ => PostedEntry::hole(),
            };
            v.push(e);
        }
        v
    }

    #[test]
    fn kernels_agree_on_posted_slabs() {
        let entries = posted_mixed();
        let probes = [
            Envelope::new(1, 11, 3).packed(),
            Envelope::new(2, 12, 3).packed(),
            Envelope::new(7, 7, 9).packed(),
        ];
        for probe in &probes {
            for len in 0..=entries.len() {
                let want = scan_slab_portable::<_, true>(&entries[..len], probe);
                for k in ScanKind::ALL {
                    let k = clamp_supported(k);
                    assert_eq!(
                        scan_slab(k, &entries[..len], probe),
                        want,
                        "{k:?} len {len}"
                    );
                    assert_eq!(
                        scan_candidates(k, &entries[..len], probe),
                        want.cand,
                        "{k:?} len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn kernels_agree_on_unexpected_slabs() {
        let mut entries: Vec<UnexpectedEntry> = (0..7)
            .map(|i| UnexpectedEntry::from_envelope(Envelope::new(i, i * 3, 1), 0xDEAD + i as u64))
            .collect();
        entries[2] = UnexpectedEntry::hole();
        entries[5] = UnexpectedEntry::hole();
        for probe in [
            RecvSpec::new(4, 12, 1).packed(),
            RecvSpec::new(crate::ANY_SOURCE, 9, 1).packed(),
            RecvSpec::any(1).packed(),
            RecvSpec::any(2).packed(),
        ] {
            for len in 0..=entries.len() {
                let want = scan_slab_portable::<_, true>(&entries[..len], &probe);
                for k in ScanKind::ALL {
                    let k = clamp_supported(k);
                    assert_eq!(
                        scan_slab(k, &entries[..len], &probe),
                        want,
                        "{k:?} len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn match_keys_agrees_across_kinds() {
        let entries = posted_mixed();
        let keys: Vec<u64> = entries.iter().map(|e| e.packed_key()).collect();
        let masks: Vec<u64> = entries.iter().map(|e| e.packed_mask()).collect();
        let probe = Envelope::new(2, 12, 3).packed();
        for len in 0..=keys.len() {
            let want = match_keys_portable(&keys[..len], &masks[..len], &probe);
            for k in ScanKind::ALL {
                let k = clamp_supported(k);
                assert_eq!(
                    match_keys(k, &keys[..len], &masks[..len], &probe),
                    want,
                    "{k:?} len {len}"
                );
            }
        }
    }
}
