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
//!   common.
//! * **Chase**: prefetch through the dependence chain itself — the
//!   Pointer-Chase Prefetcher idea (Srivastava & Navalakha, arXiv
//!   1801.08088) applied in software. The current node's `next` pointer is
//!   already resident by the time its match tests run, so issuing [`read`]
//!   on the pointed-to node is *always accurate*; the trade-off is
//!   lookahead limited to one node (the next `next` is not resident yet),
//!   so the fetch gets only one node's worth of match-test slack to hide
//!   its latency.
//! * **Adaptive**: a per-list [`AdaptiveDist`] controller picks the
//!   effective lookahead from the observed walk depth and commits to
//!   exactly **one** mechanism per walk — distance 0 on shallow queues
//!   (prefetch is pure overhead there), the accurate chase at distance 1 on
//!   mid-depth walks, and stride guesses on deep scans at the configured
//!   [`distance`] clamped into 2–4, where chase's one-node horizon cannot
//!   hide the line latency anyway. Never both at once: issuing the chase
//!   *and* the stride doubles the prefetch traffic per hop and measurably
//!   loses double digits on deep out-of-L1 walks (fill-buffer pressure).
//!   Epochs are counted in *operations*, never clocks, so the hot path
//!   stays free of time sources.
//! * **Off**: no software prefetch at all (the hardware prefetchers still
//!   run; this is the control row in the gate's scheme sweep).
//!
//! Both knobs follow the shared [`crate::envcfg::EnvSwitch`] contract:
//! parsed once per process, one-time stderr diagnostic on garbage,
//! overridable in-process, with a forced-vs-detected bit ([`scheme_forced`]
//! mirrors [`crate::simd::scan_kind_forced`]).
//!
//! **Interaction with SIMD batch scanning** (`spc_core::simd`): the
//! baseline list's batched walk gathers [`crate::simd::ScanKind::key_batch`]
//! nodes per probe test and still prefetches per node collected; the
//! distance is counted in *nodes*, so it is batch-width-agnostic.

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

/// The process-wide prefetch lookahead distance, in nodes. `0` disables
/// software prefetch. Used directly by [`PrefetchScheme::Stride`] and as
/// the clamp-documented bound for the adaptive controller.
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
    /// Dependent one-node-ahead prefetch through the resident `next`
    /// pointer — always accurate, lookahead fixed at one node.
    Chase,
    /// Per-list [`AdaptiveDist`] controller: picks no prefetch, the
    /// dependent chase, or a stride distance from the observed walk depth.
    Adaptive,
}

impl PrefetchScheme {
    /// Stable lowercase name, used by `SPC_PREFETCH_SCHEME` and the bench
    /// gate's `prefetch_scheme` JSON column.
    pub fn as_str(self) -> &'static str {
        match self {
            PrefetchScheme::Off => "off",
            PrefetchScheme::Stride => "stride",
            PrefetchScheme::Chase => "chase",
            PrefetchScheme::Adaptive => "adaptive",
        }
    }

    /// Parses the `SPC_PREFETCH_SCHEME` spelling; `None` on anything else.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(PrefetchScheme::Off),
            "stride" => Some(PrefetchScheme::Stride),
            "chase" => Some(PrefetchScheme::Chase),
            "adaptive" => Some(PrefetchScheme::Adaptive),
            _ => None,
        }
    }

    /// All schemes, in `SPC_PREFETCH_SCHEME` spelling order.
    pub const ALL: [PrefetchScheme; 4] = [
        PrefetchScheme::Off,
        PrefetchScheme::Stride,
        PrefetchScheme::Chase,
        PrefetchScheme::Adaptive,
    ];

    fn index(self) -> usize {
        match self {
            PrefetchScheme::Off => 0,
            PrefetchScheme::Stride => 1,
            PrefetchScheme::Chase => 2,
            PrefetchScheme::Adaptive => 3,
        }
    }

    fn from_index(i: usize) -> Self {
        match i {
            0 => PrefetchScheme::Off,
            1 => PrefetchScheme::Stride,
            2 => PrefetchScheme::Chase,
            _ => PrefetchScheme::Adaptive,
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
        "one of off|stride|chase|adaptive",
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

/// Number of walk observations per adaptive epoch. Small enough to react
/// within one bench warm-up, large enough that one wildcard outlier cannot
/// whipsaw the distance.
pub const ADAPTIVE_EPOCH: u32 = 64;

/// Self-tuning lookahead: one per list, fed the observed scan depth of each
/// walk, re-deciding the effective distance every [`ADAPTIVE_EPOCH`]
/// operations. Deliberately clock-free (op-count epochs — the analyzer's
/// no-clocks-in-hot-paths rule covers this module) and deterministic: the
/// same op stream always converges to the same distance.
///
/// The depth→distance map follows the module-doc rationale: at shallow
/// depths there is nothing to hide latency behind, so prefetch is pure
/// overhead (distance 0); mid-depth scans get the always-accurate chase
/// (distance 1); deep scans switch to stride guesses at the *configured*
/// lookahead ([`distance`], clamped into 2–4), because a one-node chase
/// horizon cannot hide the line latency of a scan that long. The baseline
/// list holds one entry per node, so observed depths (in entries, the
/// `Search` depth contract) are already in the nodes the walk counts its
/// lookahead in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptiveDist {
    /// Sum of observed walk depths this epoch.
    depth_sum: u64,
    /// Walks observed this epoch.
    ops: u32,
    /// Distance decided at the last epoch boundary.
    dist: u8,
}

impl AdaptiveDist {
    /// A controller starting at [`DEFAULT_DISTANCE`] (matching the stride
    /// default until the first epoch completes).
    pub const fn new() -> Self {
        AdaptiveDist {
            depth_sum: 0,
            ops: 0,
            dist: DEFAULT_DISTANCE as u8,
        }
    }

    /// Records one walk's observed scan depth (as returned by
    /// `Search::depth`); at every [`ADAPTIVE_EPOCH`]-th call, re-decides
    /// the distance from the epoch's average depth.
    #[inline]
    pub fn observe(&mut self, depth: usize) {
        self.depth_sum += depth as u64;
        self.ops += 1;
        if self.ops >= ADAPTIVE_EPOCH {
            let avg = self.depth_sum / u64::from(self.ops);
            self.dist = match avg {
                0..=1 => 0,
                2..=15 => 1,
                // Deep scans adopt the configured stride lookahead
                // (clamped into the 2–4 band): the gate measured fixed
                // distances above the configured default losing a few
                // percent on deep scans (guesses run further ahead and
                // miss more), so the controller's job here is the
                // *mechanism* decision — stride, not chase — at the
                // distance the deployment already tuned.
                _ => distance().clamp(2, 4) as u8,
            };
            self.depth_sum = 0;
            self.ops = 0;
        }
    }

    /// The currently decided lookahead distance, in nodes.
    #[inline]
    pub fn distance(&self) -> usize {
        usize::from(self.dist)
    }
}

impl Default for AdaptiveDist {
    fn default() -> Self {
        Self::new()
    }
}

/// One walk's resolved prefetch decisions, computed once at walk start so
/// the per-node loop pays no scheme dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkPrefetch {
    /// Issue the dependent prefetch through the resident `next` pointer.
    pub chase: bool,
    /// Stride-speculative lookahead in nodes; `0` disables the guess.
    pub stride: usize,
    /// Feed the observed walk depth back into the list's [`AdaptiveDist`]
    /// after the walk (only the adaptive scheme pays the bookkeeping).
    pub feedback: bool,
}

/// Resolves the process-wide [`scheme`] against a list's controller into
/// per-walk decisions. Under [`PrefetchScheme::Adaptive`] exactly one
/// mechanism runs per walk: distance 0 means no prefetch, distance 1 means
/// the accurate chase alone, and everything else goes to the stride at the
/// decided distance. Chase + stride together is deliberately never planned
/// — the doubled per-hop prefetch traffic loses on deep scans.
#[inline]
pub fn walk_plan(ctl: &AdaptiveDist) -> WalkPrefetch {
    match scheme() {
        PrefetchScheme::Off => WalkPrefetch {
            chase: false,
            stride: 0,
            feedback: false,
        },
        PrefetchScheme::Stride => WalkPrefetch {
            chase: false,
            stride: distance(),
            feedback: false,
        },
        PrefetchScheme::Chase => WalkPrefetch {
            chase: true,
            stride: 0,
            feedback: false,
        },
        PrefetchScheme::Adaptive => {
            let d = ctl.distance();
            if d == 1 {
                WalkPrefetch {
                    chase: true,
                    stride: 0,
                    feedback: true,
                }
            } else {
                WalkPrefetch {
                    chase: false,
                    stride: d,
                    feedback: true,
                }
            }
        }
    }
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
    /// parsed-once stability, then the `set_scheme` override, exercising
    /// `walk_plan` under every scheme along the way.
    #[test]
    fn scheme_is_stable_overridable_and_plans_correctly() {
        let orig = scheme();
        assert_eq!(orig, scheme(), "parsed once, then constant");
        let orig_dist = distance();
        let ctl = AdaptiveDist::new();

        set_scheme(PrefetchScheme::Off);
        assert_eq!(scheme(), PrefetchScheme::Off);
        assert_eq!(scheme_forced(), Some(PrefetchScheme::Off));
        assert_eq!(
            walk_plan(&ctl),
            WalkPrefetch {
                chase: false,
                stride: 0,
                feedback: false
            }
        );

        set_scheme(PrefetchScheme::Stride);
        set_distance(3);
        assert_eq!(
            walk_plan(&ctl),
            WalkPrefetch {
                chase: false,
                stride: 3,
                feedback: false
            }
        );

        set_scheme(PrefetchScheme::Chase);
        assert_eq!(
            walk_plan(&ctl),
            WalkPrefetch {
                chase: true,
                stride: 0,
                feedback: false
            }
        );

        set_scheme(PrefetchScheme::Adaptive);
        // Fresh controller starts at the default distance (2): stride only
        // — one mechanism per walk, never chase + stride — with feedback.
        assert_eq!(
            walk_plan(&ctl),
            WalkPrefetch {
                chase: false,
                stride: DEFAULT_DISTANCE,
                feedback: true
            }
        );
        // The distance-1 regime (mid-depth walks) is where adaptive
        // chases, alone.
        let mut mid = AdaptiveDist::new();
        for _ in 0..ADAPTIVE_EPOCH {
            mid.observe(8);
        }
        assert_eq!(mid.distance(), 1);
        assert_eq!(
            walk_plan(&mid),
            WalkPrefetch {
                chase: true,
                stride: 0,
                feedback: true
            }
        );
        // Deep scans go to stride guesses at the configured lookahead
        // (clamped into the 2–4 band).
        for _ in 0..ADAPTIVE_EPOCH {
            mid.observe(1024);
        }
        assert_eq!(
            walk_plan(&mid),
            WalkPrefetch {
                chase: false,
                stride: distance().clamp(2, 4),
                feedback: true
            }
        );

        set_distance(orig_dist);
        assert_eq!(set_scheme(orig), orig, "restored for sibling tests");
    }

    #[test]
    fn scheme_parse_round_trips_and_rejects_garbage() {
        for s in PrefetchScheme::ALL {
            assert_eq!(PrefetchScheme::parse(s.as_str()), Some(s));
            assert_eq!(PrefetchScheme::from_index(s.index()), s);
        }
        assert_eq!(PrefetchScheme::parse("CHASE"), None);
        assert_eq!(PrefetchScheme::parse("on"), None);
        assert_eq!(PrefetchScheme::parse(""), None);
    }

    /// The controller converges to ≤1 on shallow queues and ≥2 on deep
    /// scans, deterministically, and holds its decision across epochs of
    /// the same workload.
    #[test]
    fn adaptive_converges_shallow_down_and_deep_up() {
        // Depth-4 queue: every walk sees at most 4 nodes.
        let mut shallow = AdaptiveDist::new();
        for i in 0..(ADAPTIVE_EPOCH * 4) {
            shallow.observe((i % 4 + 1) as usize);
        }
        assert!(
            shallow.distance() <= 1,
            "depth-4 workload must converge to ≤1, got {}",
            shallow.distance()
        );

        // Depth-1024 back-of-queue scans.
        let mut deep = AdaptiveDist::new();
        for _ in 0..(ADAPTIVE_EPOCH * 4) {
            deep.observe(1024);
        }
        assert!(
            deep.distance() >= 2,
            "depth-1024 workload must converge to ≥2, got {}",
            deep.distance()
        );

        // Empty-queue walks (depth 0) drop prefetch entirely.
        let mut idle = AdaptiveDist::new();
        for _ in 0..ADAPTIVE_EPOCH {
            idle.observe(0);
        }
        assert_eq!(idle.distance(), 0);

        // Determinism: an identical stream converges identically.
        let mut twin = AdaptiveDist::new();
        for _ in 0..(ADAPTIVE_EPOCH * 4) {
            twin.observe(1024);
        }
        assert_eq!(twin, deep);

        // Mid-epoch observations do not move the decision early.
        let before = deep.distance();
        deep.observe(1);
        assert_eq!(deep.distance(), before, "decisions move only at epochs");
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
