//! Software prefetch for the match-list hot paths.
//! spc-scope: hot-path
//!
//! The paper's traversal cost model (§3.1) is dominated by cache-line
//! fetches the hardware prefetcher cannot predict: the baseline list chases
//! scattered heap `next` pointers. Explicit next-node prefetch overlaps the
//! next node's memory latency with the current node's match tests.
//!
//! [`read`] compiles to `prefetcht0` on x86-64 and to nothing elsewhere; it
//! is a pure performance hint with no semantic effect, so every traversal
//! stays byte-for-byte equivalent to its unprefetched form (the differential
//! conformance harness runs against the prefetching paths, under every
//! scheme — see `crates/conformance/tests/prefetch_schemes.rs`).
//!
//! ## Schemes apply to the baseline walk only
//!
//! The [`crate::list::BaselineList`] walk selects its strategy per process
//! by [`PrefetchScheme`] through the `SPC_PREFETCH_SCHEME` environment
//! variable (or [`set_scheme`] for in-process sweeps). The linked list of
//! arrays ([`crate::list::Lla`]) ignores the scheme: its cache-line nodes
//! hold two posted entries, so its walk is bound by instructions per hop,
//! not by memory, and no scheme beat no prefetch on the gate's LLA-2 rows.
//! Its pool hands out ids sequentially, so standing nodes are contiguous
//! and the hardware prefetchers cover them. Only its large-arity windowed
//! scan streams the next window via [`read_span`], because a 32-entry
//! window spans many lines whose address is known with no dependent load.
//!
//! * **Stride** (the default, PR 3): *guess* the upcoming address without a
//!   dependent load — the allocator stride observed between consecutive
//!   heap nodes, extrapolated `k` nodes ahead, where `k` is [`distance`]
//!   (`SPC_PREFETCH_DIST`, default 2). A wrong guess costs one wasted line
//!   fill and never a stall, but allocator churn makes wrong guesses
//!   common. It wins the gate's depth-1024 baseline cells.
//! * **Off**: no software prefetch at all (the hardware prefetchers still
//!   run). It wins the gate's shallow baseline cells, where there is no
//!   walk long enough to hide a fetch behind.
//!
//! There is deliberately no dependent one-node-ahead chase (the
//! Pointer-Chase Prefetcher idea, Srivastava & Navalakha, arXiv
//! 1801.08088, applied in software) and no self-tuning distance: measured
//! on this walk, neither won a gate cell beyond spread, and with the list
//! evicted from L2 the chase only tied `off` (EXPERIMENTS.md "Prefetch
//! schemes").
//!
//! Both knobs follow the shared [`crate::envcfg::EnvSwitch`] contract:
//! parsed once per process, one-time stderr diagnostic on garbage,
//! overridable in-process, with a forced-vs-detected bit ([`scheme_forced`]
//! mirrors [`crate::simd::scan_kind_forced`]).

use crate::envcfg::EnvSwitch;

/// Default lookahead distance in nodes.
pub const DEFAULT_DISTANCE: usize = 2;

/// Largest accepted lookahead; beyond this the guesses run so far ahead
/// they evict lines before the scan reaches them, so larger env values are
/// clamped.
pub const MAX_DISTANCE: usize = 8;

/// The tri-state switch behind `SPC_PREFETCH_DIST` — see [`crate::envcfg`]
/// for the shared once-parsed / one-time-diagnostic / override contract.
static DISTANCE: EnvSwitch = EnvSwitch::new("SPC_PREFETCH_DIST");

/// The tri-state switch behind `SPC_PREFETCH_SCHEME`.
static SCHEME: EnvSwitch = EnvSwitch::new("SPC_PREFETCH_SCHEME");

/// The process-wide prefetch lookahead distance, in nodes, used by
/// [`PrefetchScheme::Stride`]. `0` disables software prefetch.
///
/// **Once-parsed contract:** `SPC_PREFETCH_DIST` is consulted exactly once,
/// on the first call; later changes to the environment are not observed. An
/// unparsable value falls back to [`DEFAULT_DISTANCE`] and emits a one-time
/// `stderr` diagnostic rather than being swallowed silently. In-process
/// sweeps (benches iterating over distances without re-`exec`ing) use
/// [`set_distance`], which overrides whatever the environment said.
#[inline]
pub fn distance() -> usize {
    DISTANCE
        .get(
            |s| s.parse::<usize>().ok().map(|d| d.min(MAX_DISTANCE)),
            || DEFAULT_DISTANCE,
            "an integer in 0..=8",
            "default 2",
        )
        .0
}

/// Overrides the lookahead distance for the rest of the process (clamped to
/// [`MAX_DISTANCE`]; returns the value actually installed). This exists for
/// in-process distance sweeps — e.g. a bench bin measuring every distance in
/// one run — which the env var alone cannot express because of the
/// once-parsed contract on [`distance`]. Prefetch is a pure hint, so
/// flipping the distance mid-run never changes match semantics, only
/// traversal timing.
pub fn set_distance(d: usize) -> usize {
    let d = d.min(MAX_DISTANCE);
    DISTANCE.set(d);
    d
}

/// Which address-prediction strategy the baseline walk's software prefetch
/// uses. See the module docs for the trade-offs; the gate's scheme sweep
/// (`matching_gate`, EXPERIMENTS.md "Prefetch schemes") records which one
/// wins at which depth.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PrefetchScheme {
    /// No software prefetch (hardware prefetchers only).
    Off,
    /// Stride-speculative guesses [`distance`] nodes ahead (PR 3 behavior,
    /// the production default).
    Stride,
}

impl PrefetchScheme {
    /// Stable lowercase name, used by `SPC_PREFETCH_SCHEME` and the bench
    /// gate's `prefetch_scheme` JSON column.
    pub fn as_str(self) -> &'static str {
        match self {
            PrefetchScheme::Off => "off",
            PrefetchScheme::Stride => "stride",
        }
    }

    /// Parses the `SPC_PREFETCH_SCHEME` spelling; `None` on anything else.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(PrefetchScheme::Off),
            "stride" => Some(PrefetchScheme::Stride),
            _ => None,
        }
    }

    /// All schemes, in `SPC_PREFETCH_SCHEME` spelling order.
    pub const ALL: [PrefetchScheme; 2] = [PrefetchScheme::Off, PrefetchScheme::Stride];

    fn index(self) -> usize {
        match self {
            PrefetchScheme::Off => 0,
            PrefetchScheme::Stride => 1,
        }
    }

    fn from_index(i: usize) -> Self {
        match i {
            0 => PrefetchScheme::Off,
            _ => PrefetchScheme::Stride,
        }
    }
}

/// The process-wide prefetch scheme. Same once-parsed contract as
/// [`distance`]; the default is [`PrefetchScheme::Stride`], which preserves
/// the pre-scheme behavior exactly.
#[inline]
pub fn scheme() -> PrefetchScheme {
    PrefetchScheme::from_index(scheme_switch().0)
}

/// The scheme, but only when it was *explicitly requested* — via
/// `SPC_PREFETCH_SCHEME` or [`set_scheme`] — rather than defaulted.
/// Mirrors [`crate::simd::scan_kind_forced`]; the gate uses it to restrict
/// its scheme sweep to an explicitly requested scheme.
#[inline]
pub fn scheme_forced() -> Option<PrefetchScheme> {
    let (i, forced) = scheme_switch();
    forced.then(|| PrefetchScheme::from_index(i))
}

#[inline]
fn scheme_switch() -> (usize, bool) {
    SCHEME.get(
        |s| PrefetchScheme::parse(s).map(PrefetchScheme::index),
        || PrefetchScheme::Stride.index(),
        "one of off|stride",
        "default stride",
    )
}

/// Overrides the scheme for the rest of the process (returns it for
/// symmetry with [`set_distance`]/[`crate::simd::set_scan_kind`]). Prefetch
/// is a pure hint under every scheme, so flipping mid-run never changes
/// match semantics. The installed scheme counts as *forced* (see
/// [`scheme_forced`]).
pub fn set_scheme(s: PrefetchScheme) -> PrefetchScheme {
    SCHEME.set(s.index());
    s
}

/// Hints the CPU to pull the cache line holding `p` into all cache levels.
/// A no-op on non-x86-64 targets and on null/dangling pointers (prefetch
/// never faults).
#[inline(always)]
pub fn read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch instructions do not access memory architecturally;
    // any address, mapped or not, is allowed and cannot fault.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = p;
    }
}

/// Hints the CPU to pull the line holding `base + field_off`, but only when
/// it differs from the line holding `base`. The node walks prefetch a
/// node's first line and its link field; for small nodes the two usually
/// share a line, and a duplicate hint wastes a prefetch slot on deep scans
/// where the fill buffers are already the bottleneck — so the second hint
/// is issued only when the allocation actually straddles a line boundary.
/// Same contract as [`read`]: a pure hint that never faults.
#[inline(always)]
pub fn read_second_line(base: usize, field_off: usize) {
    let field = base.wrapping_add(field_off);
    if field / crate::CACHE_LINE != base / crate::CACHE_LINE {
        read(field as *const u8);
    }
}

/// Hints the CPU to pull every cache line of the `bytes`-byte span starting
/// at `p`. Used by the windowed large-arity slab scan, where one 32-entry
/// window covers many lines whose addresses are known without a dependent
/// load. Same contract as [`read`]: a pure hint that never faults.
#[inline]
pub fn read_span<T>(p: *const T, bytes: usize) {
    let mut off = 0usize;
    while off < bytes {
        read((p as *const u8).wrapping_add(off));
        off += crate::CACHE_LINE;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test owns the process-global distance: stability of the parsed
    /// value, then the `set_distance` override (kept together so parallel
    /// test threads never observe a mid-test override).
    #[test]
    fn distance_is_bounded_stable_and_overridable() {
        let d = distance();
        assert!(d <= MAX_DISTANCE);
        assert_eq!(d, distance(), "parsed once, then constant");
        assert_eq!(set_distance(5), 5);
        assert_eq!(distance(), 5, "override is visible in-process");
        assert_eq!(set_distance(100), MAX_DISTANCE, "override clamps");
        assert_eq!(distance(), MAX_DISTANCE);
        assert_eq!(set_distance(d), d, "restored for sibling tests");
    }

    /// One test owns the process-global scheme (mirrors the distance test):
    /// parsed-once stability, then the `set_scheme` override.
    #[test]
    fn scheme_is_stable_and_overridable() {
        let orig = scheme();
        assert_eq!(orig, scheme(), "parsed once, then constant");
        for s in PrefetchScheme::ALL {
            assert_eq!(set_scheme(s), s);
            assert_eq!(scheme(), s, "override is visible in-process");
            assert_eq!(scheme_forced(), Some(s), "an override counts as forced");
        }
        assert_eq!(set_scheme(orig), orig, "restored for sibling tests");
    }

    #[test]
    fn scheme_parse_round_trips_and_rejects_garbage() {
        for s in PrefetchScheme::ALL {
            assert_eq!(PrefetchScheme::parse(s.as_str()), Some(s));
            assert_eq!(PrefetchScheme::from_index(s.index()), s);
        }
        // Deleted schemes are rejected, so a stale `SPC_PREFETCH_SCHEME`
        // falls back to `stride` with the one-time diagnostic.
        assert_eq!(PrefetchScheme::parse("chase"), None);
        assert_eq!(PrefetchScheme::parse("adaptive"), None);
        assert_eq!(PrefetchScheme::parse("STRIDE"), None);
        assert_eq!(PrefetchScheme::parse("on"), None);
        assert_eq!(PrefetchScheme::parse(""), None);
    }

    #[test]
    fn prefetch_accepts_any_pointer() {
        let v = 7u64;
        read(&v as *const u64);
        read(core::ptr::null::<u64>());
        read(0xdead_beef_usize as *const u8);
        let buf = [0u8; 1024];
        read_span(buf.as_ptr(), buf.len());
        read_span(buf.as_ptr(), 0);
        read_span(core::ptr::null::<u8>(), 128);
    }
}
