//! Native hot-path benchmark gate for the packed-key + SIMD matching
//! optimisations.
//!
//! Runs a fixed, seeded workload matrix — queue depth × structure ×
//! hit-position × wildcard ratio × scan kernel — through the current
//! search (`search_remove`, under each supported slab-scan kind) and, for
//! the linear structures that kept it, the pre-optimisation field-wise scan
//! (`search_remove_fieldwise`), and writes the results as
//! `BENCH_matching.json` with the stable `spc-bench/1` schema (see the
//! `spc-minibench` crate docs).
//!
//! Methodology: each cell builds a fresh list of `depth` entries over a
//! small tag alphabet with *unique (rank, tag) pairs*, so a probe targets
//! exactly one entry and the hit position is the target's FIFO index while
//! the comparator still sees realistic tag reuse. Hit cells run the
//! steady-state loop
//! `search_remove(probe) -> append(found)`: removing the entry at index `t`
//! and re-appending it leaves positions `0..t` fixed and rotates the
//! `depth - t` suffix, so a precomputed cycle of `depth - t` probes repeats
//! exactly and every timed operation scans to the same position. Miss cells
//! probe a tag no entry carries (a full scan, the deep-list figure the
//! acceptance gate keys on). Wall time per op comes from
//! `spc_minibench::measure_ns` (the same calibrate-then-best-mean core the
//! criterion-style targets use); simulated bytes per op come from replaying
//! one full probe cycle against a `CountingSink` twin; the cachesim columns
//! (`lines_per_op`, `l1_hit_pct`, `l3_hit_pct`) come from replaying the
//! identical seeded op stream against an `spc-cachesim` `MemSim` on the
//! Sandy Bridge profile — one full warm-up cycle, a stats reset, then one
//! measured cycle — so a timing win can be *attributed*: a SIMD row that is
//! faster at identical lines/op and hit ratios won on compute, not on a
//! layout change.
//!
//! Every non-portable packed cell also runs a built-in **cross-check**: a
//! twin pair of lists replays the same probe cycle under the cell's kind
//! and under the portable scalar kernel in lockstep, and any divergence in
//! match identity or reported depth aborts the run with a nonzero exit.
//! CI runs the quick matrix twice (`SPC_SCAN_KIND=portable` and
//! `SPC_SCAN_KIND=simd256`) so both the fallback and the vector kernels are
//! exercised and compared on every push.
//!
//! The matrix also sweeps the **traversal-prefetch scheme** over the
//! baseline list, the only walk that has one: the main pass runs under the
//! installed scheme (default `stride`), then the packed baseline re-runs
//! under `off`, `chase`, and `adaptive`, pinned to the best scan kernel so
//! the scheme is the only variable. The LLA walk issues no software
//! prefetch, so LLA cells run once and are recorded as `off` with distance
//! 0. Scheme rows carry `prefetch_scheme` / `prefetch_dist` columns, and
//! their cachesim replay arms the simulated pointer-chase unit (degree 1
//! wherever the native walk chases) so the native `prefetcht0` chase has a
//! simulated counterpart — the L1-hit delta against the stride row
//! attributes the timing change to locality.
//!
//! Usage: `matching_gate [--quick] [--out <path>]` (also `--json <path>`;
//! default `BENCH_matching.json`). `--quick` shrinks the matrix and budgets
//! for CI smoke runs and marks the JSON `"quick": true`. The `SPC_SCAN_KIND`
//! environment variable restricts the packed sweep to one kernel
//! (`portable`/`simd128`/`simd256`, downgraded to the best the CPU
//! supports); `SPC_PREFETCH_SCHEME` (`off`/`stride`/`chase`/`adaptive`)
//! pins every non-LLA row to one scheme and skips the scheme sweep. The
//! binary exits nonzero on panic, an unwritable output path, or a kernel
//! cross-check divergence — perf regressions are recorded, not fatal, so CI
//! stays green on noisy runners.

use criterion::{measure_ns, report};
use spc_cachesim::{ArchProfile, MemSim};
use spc_core::entry::{Envelope, PostedEntry, RecvSpec, ANY_SOURCE};
use spc_core::list::{BaselineList, HashBins, Lla, MatchList, RankTrie, Search, SourceBins};
use spc_core::prefetch::{self, PrefetchScheme};
use spc_core::simd::{self, ScanKind};
use spc_core::sink::{CountingSink, NullSink};
use spc_rng::{Rng, SeedableRng, StdRng};
use std::time::Duration;

/// Tag alphabet size. MPI applications reuse a handful of tags across many
/// peers, so the comparator keeps passing the tag compare and failing on
/// the rank — the branchy multi-field case the packed key collapses.
const TAGS: usize = 4;
/// Workload seed; fixed so every run measures the identical op stream.
const SEED: u64 = 0xC0_FFEE_2026u64;

/// Communicator size for `depth` entries: ranks grow with the queue (deep
/// queues come from many peers, not one chatty one), with one extra rank
/// kept unposted so the miss probe can carry a live tag and a dead rank.
fn rank_count(depth: usize) -> usize {
    64usize.max(depth.div_ceil(TAGS) + 1)
}

/// Measured code path plus the slab-scan kernel under it — the `path` and
/// `scan_kind` JSON columns.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// The pre-packed-key field-by-field comparator.
    Fieldwise,
    /// The packed-key search under a specific slab-scan kernel.
    Packed(ScanKind),
}

impl Variant {
    fn path(self) -> &'static str {
        match self {
            Variant::Fieldwise => "fieldwise",
            Variant::Packed(_) => "packed",
        }
    }

    /// The `scan_kind` column: `fieldwise` < `packed` (scalar portable)
    /// < `simd128` < `simd256`.
    fn scan_kind(self) -> &'static str {
        match self {
            Variant::Fieldwise => "fieldwise",
            Variant::Packed(ScanKind::Portable) => "packed",
            Variant::Packed(k) => k.as_str(),
        }
    }

    /// Installs the kernel this variant measures (fieldwise never consults
    /// the scan kind, but pinning portable keeps the cell hermetic).
    fn install(self) {
        match self {
            Variant::Fieldwise => simd::set_scan_kind(ScanKind::Portable),
            Variant::Packed(k) => simd::set_scan_kind(k),
        };
    }
}

/// One point of the workload matrix.
#[derive(Clone, Copy)]
struct Cell {
    structure: &'static str,
    depth: usize,
    hit: &'static str,
    wildcard: f64,
    variant: Variant,
    /// Traversal-prefetch scheme installed while the cell runs ([`Off`]
    /// for LLA cells, whose walk never prefetches). The fieldwise
    /// reference path never prefetches either, so its rows always report
    /// `off` regardless of this value.
    ///
    /// [`Off`]: PrefetchScheme::Off
    scheme: PrefetchScheme,
}

impl Cell {
    /// The `prefetch_scheme` JSON column.
    fn scheme_column(&self) -> &'static str {
        match self.variant {
            Variant::Fieldwise => "off",
            Variant::Packed(_) => self.scheme.as_str(),
        }
    }

    /// Pointer-chase depth for the cell's cachesim replay. The native
    /// stride scheme's `prefetcht0` hints are invisible to the access-trace
    /// sink, so the simulated hierarchy only distinguishes schemes through
    /// its chase unit: one-node lookahead wherever the native walk issues
    /// the dependent chase (the forced chase scheme, and the adaptive
    /// scheme when its controller converged into the chase regime —
    /// `adaptive_dist` is the converged distance of the timed list).
    fn sim_chase_degree(&self, adaptive_dist: Option<usize>) -> u32 {
        match (self.variant, self.scheme) {
            (Variant::Fieldwise, _) => 0,
            (_, PrefetchScheme::Chase) => 1,
            (_, PrefetchScheme::Adaptive) => u32::from(adaptive_dist == Some(1)),
            _ => 0,
        }
    }
}

struct MeasureCfg {
    samples: usize,
    time: Duration,
}

/// Object-safe facade over the concrete list types and search paths, so one
/// cell runner drives every matrix point. `*_null` methods time against a
/// `NullSink`; `*_count` methods replay against the byte-accounting twin;
/// `*_sim` methods replay against the cache-hierarchy simulator.
trait GateList {
    fn append_null(&mut self, e: PostedEntry);
    fn append_count(&mut self, e: PostedEntry, sink: &mut CountingSink);
    fn append_sim(&mut self, e: PostedEntry, sink: &mut MemSim);
    fn search_null(&mut self, p: &Envelope) -> Search<PostedEntry>;
    fn search_count(&mut self, p: &Envelope, sink: &mut CountingSink) -> Search<PostedEntry>;
    fn search_sim(&mut self, p: &Envelope, sink: &mut MemSim) -> Search<PostedEntry>;
    /// Converged adaptive-controller lookahead (`None` off the packed
    /// linear structures).
    fn adaptive_dist(&self) -> Option<usize>;
}

/// The current packed-key path, available on every structure.
struct Packed<L>(L);

impl<L: MatchList<PostedEntry>> GateList for Packed<L> {
    fn append_null(&mut self, e: PostedEntry) {
        self.0.append(e, &mut NullSink);
    }
    fn append_count(&mut self, e: PostedEntry, sink: &mut CountingSink) {
        self.0.append(e, sink);
    }
    fn append_sim(&mut self, e: PostedEntry, sink: &mut MemSim) {
        self.0.append(e, sink);
    }
    fn search_null(&mut self, p: &Envelope) -> Search<PostedEntry> {
        self.0.search_remove(p, &mut NullSink)
    }
    fn search_count(&mut self, p: &Envelope, sink: &mut CountingSink) -> Search<PostedEntry> {
        self.0.search_remove(p, sink)
    }
    fn search_sim(&mut self, p: &Envelope, sink: &mut MemSim) -> Search<PostedEntry> {
        self.0.search_remove(p, sink)
    }
    fn adaptive_dist(&self) -> Option<usize> {
        self.0.adaptive_prefetch_distance()
    }
}

/// The pre-optimisation field-wise scan kept on the linear structures as the
/// gate's old-path reference.
struct FieldwiseBaseline(BaselineList<PostedEntry>);

impl GateList for FieldwiseBaseline {
    fn append_null(&mut self, e: PostedEntry) {
        self.0.append(e, &mut NullSink);
    }
    fn append_count(&mut self, e: PostedEntry, sink: &mut CountingSink) {
        self.0.append(e, sink);
    }
    fn append_sim(&mut self, e: PostedEntry, sink: &mut MemSim) {
        self.0.append(e, sink);
    }
    fn search_null(&mut self, p: &Envelope) -> Search<PostedEntry> {
        self.0.search_remove_fieldwise(p, &mut NullSink)
    }
    fn search_count(&mut self, p: &Envelope, sink: &mut CountingSink) -> Search<PostedEntry> {
        self.0.search_remove_fieldwise(p, sink)
    }
    fn search_sim(&mut self, p: &Envelope, sink: &mut MemSim) -> Search<PostedEntry> {
        self.0.search_remove_fieldwise(p, sink)
    }
    fn adaptive_dist(&self) -> Option<usize> {
        None
    }
}

struct FieldwiseLla<const N: usize>(Lla<PostedEntry, N>);

impl<const N: usize> GateList for FieldwiseLla<N> {
    fn append_null(&mut self, e: PostedEntry) {
        self.0.append(e, &mut NullSink);
    }
    fn append_count(&mut self, e: PostedEntry, sink: &mut CountingSink) {
        self.0.append(e, sink);
    }
    fn append_sim(&mut self, e: PostedEntry, sink: &mut MemSim) {
        self.0.append(e, sink);
    }
    fn search_null(&mut self, p: &Envelope) -> Search<PostedEntry> {
        self.0.search_remove_fieldwise(p, &mut NullSink)
    }
    fn search_count(&mut self, p: &Envelope, sink: &mut CountingSink) -> Search<PostedEntry> {
        self.0.search_remove_fieldwise(p, sink)
    }
    fn search_sim(&mut self, p: &Envelope, sink: &mut MemSim) -> Search<PostedEntry> {
        self.0.search_remove_fieldwise(p, sink)
    }
    fn adaptive_dist(&self) -> Option<usize> {
        None
    }
}

fn make_list(structure: &str, variant: Variant, depth: usize) -> Box<dyn GateList> {
    let ranks = rank_count(depth);
    match (structure, variant) {
        ("baseline", Variant::Packed(_)) => Box::new(Packed(BaselineList::<PostedEntry>::new())),
        ("baseline", Variant::Fieldwise) => Box::new(FieldwiseBaseline(BaselineList::new())),
        ("lla2", Variant::Packed(_)) => Box::new(Packed(Lla::<PostedEntry, 2>::new())),
        ("lla2", Variant::Fieldwise) => Box::new(FieldwiseLla::<2>(Lla::new())),
        ("lla8", Variant::Packed(_)) => Box::new(Packed(Lla::<PostedEntry, 8>::new())),
        ("lla8", Variant::Fieldwise) => Box::new(FieldwiseLla::<8>(Lla::new())),
        ("lla32", Variant::Packed(_)) => Box::new(Packed(Lla::<PostedEntry, 32>::new())),
        ("lla32", Variant::Fieldwise) => Box::new(FieldwiseLla::<32>(Lla::new())),
        ("bins", Variant::Packed(_)) => Box::new(Packed(SourceBins::<PostedEntry>::new(ranks))),
        ("hashbins", Variant::Packed(_)) => Box::new(Packed(HashBins::<PostedEntry>::new())),
        ("ranktrie", Variant::Packed(_)) => Box::new(Packed(RankTrie::<PostedEntry>::new(ranks))),
        (s, _) => panic!("no fieldwise path for {s}"),
    }
}

/// The seeded entry population for one cell: concrete entry `i` posts
/// `(rank = i / TAGS, tag = i % TAGS)` — every (rank, tag) pair distinct,
/// so a probe matches exactly one entry and the hit position is the
/// target's FIFO index, while the comparator still sees realistic tag
/// reuse. A `wildcard` fraction instead posts `MPI_ANY_SOURCE` under a
/// reserved per-entry tag, unique by construction so wildcards never
/// shadow a probe's target. The rng stream depends only on
/// (depth, wildcard), so every variant of a cell measures the identical
/// population.
fn make_entries(depth: usize, wildcard: f64) -> Vec<PostedEntry> {
    let mut rng = StdRng::seed_from_u64(SEED ^ (depth as u64) << 8 ^ (wildcard * 1024.0) as u64);
    (0..depth)
        .map(|i| {
            let spec = if rng.gen_bool(wildcard) {
                RecvSpec::new(ANY_SOURCE, 1_000_000 + i as i32, 0)
            } else {
                RecvSpec::new((i / TAGS) as i32, (i % TAGS) as i32, 0)
            };
            PostedEntry::from_spec(spec, i as u64)
        })
        .collect()
}

/// Precomputes the probe cycle for a hit at FIFO index `t`: the
/// remove-at-`t` / append-at-back dynamics rotate the `len - t` suffix, so
/// after `len - t` ops the order (and therefore the cycle) repeats exactly.
fn hit_probes(entries: &[PostedEntry], t: usize) -> Vec<Envelope> {
    let mut order: Vec<&PostedEntry> = entries.iter().collect();
    let period = entries.len() - t;
    let mut probes = Vec::with_capacity(period);
    for _ in 0..period {
        let target = order.remove(t);
        // Wildcard targets accept any source; their reserved tag selects.
        let rank = target.source().unwrap_or(0);
        probes.push(Envelope::new(rank, target.tag, 0));
        order.push(target);
    }
    probes
}

fn cell_probes(cell: &Cell, entries: &[PostedEntry]) -> Vec<Envelope> {
    match cell.hit {
        "front" => hit_probes(entries, cell.depth / 8),
        "mid" => hit_probes(entries, cell.depth / 2),
        "back" => hit_probes(entries, cell.depth - 1),
        // The top rank is never posted (`rank_count` reserves it), but tag
        // 0 is heavily reused, so a miss scan exercises the realistic
        // fail-on-rank-after-tag-passes comparator path.
        "miss" => vec![Envelope::new(rank_count(cell.depth) as i32 - 1, 0, 0)],
        other => panic!("unknown hit position {other}"),
    }
}

/// Cachesim-derived columns for one cell, from a `MemSim` replay.
struct SimColumns {
    lines_per_op: f64,
    l1_hit_pct: f64,
    l3_hit_pct: f64,
}

/// Lockstep twin replay: the cell's kernel vs the portable scalar, same
/// probes on identical fresh lists. Any divergence in match identity or
/// depth is a kernel bug — abort the gate, don't record around it.
fn cross_check(cell: &Cell, entries: &[PostedEntry], probes: &[Envelope], kind: ScanKind) {
    let mut ours = make_list(cell.structure, cell.variant, cell.depth);
    let mut reference = make_list(cell.structure, cell.variant, cell.depth);
    for e in entries {
        ours.append_null(*e);
        reference.append_null(*e);
    }
    // Two full cycles so the second starts from rotated (steady) state.
    for k in 0..probes.len() * 2 {
        let p = &probes[k % probes.len()];
        simd::set_scan_kind(kind);
        let a = ours.search_null(p);
        simd::set_scan_kind(ScanKind::Portable);
        let b = reference.search_null(p);
        let ar = a.found.map(|e| e.request);
        let br = b.found.map(|e| e.request);
        if ar != br || a.depth != b.depth {
            eprintln!(
                "gate: CROSS-CHECK DIVERGENCE at {} op {k}: \
                 {kind:?} found {ar:?} depth {} vs portable found {br:?} depth {}",
                label(cell),
                a.depth,
                b.depth
            );
            std::process::exit(2);
        }
        if let Some(e) = a.found {
            ours.append_null(e);
        }
        if let Some(e) = b.found {
            reference.append_null(e);
        }
    }
    simd::set_scan_kind(kind);
}

/// Replays the cell's op stream against the cache hierarchy: appends and
/// one full probe cycle warm the simulated caches, then one measured cycle
/// produces the per-op line and hit-ratio columns.
fn run_sim(
    cell: &Cell,
    entries: &[PostedEntry],
    probes: &[Envelope],
    adaptive_dist: Option<usize>,
) -> SimColumns {
    let mut list = make_list(cell.structure, cell.variant, cell.depth);
    let prof = ArchProfile::sandy_bridge().with_pointer_chase(cell.sim_chase_degree(adaptive_dist));
    let mut mem = MemSim::new(prof);
    for e in entries {
        list.append_sim(*e, &mut mem);
    }
    // One warm-up cycle returns a hit cell to its original FIFO order
    // (the rotation period equals the cycle length), so the measured
    // cycle replays the identical op stream on warm caches.
    for cycle in 0..2 {
        if cycle == 1 {
            mem.reset_stats();
        }
        for p in probes {
            let s = list.search_sim(p, &mut mem);
            if let Some(e) = s.found {
                list.append_sim(e, &mut mem);
            }
        }
    }
    let st = mem.stats();
    let total = st.l1_hits + st.l2_hits + st.l3_hits + st.dram_loads + st.net_cache_hits;
    let ops = probes.len() as f64;
    let pct = |x: u64| {
        if total == 0 {
            0.0
        } else {
            100.0 * x as f64 / total as f64
        }
    };
    SimColumns {
        lines_per_op: total as f64 / ops,
        l1_hit_pct: pct(st.l1_hits),
        l3_hit_pct: pct(total - st.dram_loads),
    }
}

/// One scheme's measurements over a cell's shared list.
struct SchemeRun {
    scheme: PrefetchScheme,
    ns: f64,
    bytes: f64,
    sim: SimColumns,
    dist: u64,
}

/// Runs one matrix cell: times the steady-state loop, then replays one full
/// probe cycle against a `CountingSink` twin and the cachesim — once under
/// the cell's own scheme, then again under each of `extra_schemes` on the
/// SAME list object. The traversal-prefetch scheme is a process-global
/// switch that never changes how the list is laid out, so re-timing one
/// list under every scheme makes the allocation layout (which on this
/// matrix moves individual cells by tens of percent run-to-run) cancel
/// exactly in any scheme-vs-scheme comparison.
fn run_cell(cell: &Cell, cfg: &MeasureCfg, extra_schemes: &[PrefetchScheme]) -> Vec<SchemeRun> {
    cell.variant.install();
    prefetch::set_scheme(cell.scheme);
    let entries = make_entries(cell.depth, cell.wildcard);
    let probes = cell_probes(cell, &entries);
    if let Variant::Packed(kind) = cell.variant {
        if kind != ScanKind::Portable {
            cross_check(cell, &entries, &probes, kind);
        }
    }
    let mut list = make_list(cell.structure, cell.variant, cell.depth);
    for e in &entries {
        list.append_null(*e);
    }
    let expect_hit = cell.hit != "miss";
    // The probe index and the list's rotation state advance together, so the
    // cycle stays aligned across calibration batches, the bytes replay, and
    // every subsequent scheme's timed loop (each replay is exactly one
    // rotation period).
    let mut k = 0usize;
    let mut runs = Vec::with_capacity(1 + extra_schemes.len());
    for scheme in std::iter::once(cell.scheme).chain(extra_schemes.iter().copied()) {
        prefetch::set_scheme(scheme);
        let scheme_cell = Cell { scheme, ..*cell };
        let ns = measure_ns(cfg.samples, cfg.time, |b| {
            b.iter(|| {
                let s = list.search_null(&probes[k % probes.len()]);
                k += 1;
                debug_assert_eq!(s.found.is_some(), expect_hit);
                if let Some(e) = s.found {
                    list.append_null(e);
                }
                s.depth
            })
        });
        let mut sink = CountingSink::new();
        for _ in 0..probes.len() {
            let s = list.search_count(&probes[k % probes.len()], &mut sink);
            k += 1;
            assert_eq!(
                s.found.is_some(),
                expect_hit,
                "cell {} desynced",
                label(&scheme_cell)
            );
            if let Some(e) = s.found {
                list.append_count(e, &mut sink);
            }
        }
        let bytes = (sink.bytes_read + sink.bytes_written) as f64 / probes.len() as f64;
        // Read the controller AFTER this scheme's timed+replay stream, so an
        // adaptive run reports the distance it actually converged to.
        let adaptive = list.adaptive_dist();
        let sim = run_sim(&scheme_cell, &entries, &probes, adaptive);
        // The `prefetch_dist` column: nodes of lookahead the walk actually
        // ran with — the configured stride for fixed schemes, one for the
        // dependent chase, and the controller's converged decision for
        // adaptive.
        let dist = match (cell.variant, scheme) {
            (Variant::Fieldwise, _) | (_, PrefetchScheme::Off) => 0,
            (_, PrefetchScheme::Stride) => prefetch::distance() as u64,
            (_, PrefetchScheme::Chase) => 1,
            (_, PrefetchScheme::Adaptive) => adaptive.unwrap_or(0) as u64,
        };
        runs.push(SchemeRun {
            scheme,
            ns,
            bytes,
            sim,
            dist,
        });
    }
    runs
}

fn label(cell: &Cell) -> String {
    format!(
        "gate/{}/{}/{}/w{}/{}/{}",
        cell.structure,
        cell.depth,
        cell.hit,
        (cell.wildcard * 1000.0) as u64,
        cell.variant.scan_kind(),
        cell.scheme_column()
    )
}

fn main() {
    let mut quick = false;
    let mut out = String::from("BENCH_matching.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" | "--json" => out = args.next().expect("missing path after --out"),
            other => panic!("unknown argument {other} (expected --quick / --out <path>)"),
        }
    }

    // `SPC_SCAN_KIND` restricts the packed sweep to one kernel — this first
    // call parses it (emitting the one-time diagnostic on garbage) and
    // clamps to what the CPU supports.
    let env_forced = std::env::var("SPC_SCAN_KIND").is_ok();
    let installed = simd::scan_kind();
    let packed_kinds: Vec<ScanKind> = if env_forced {
        vec![installed]
    } else {
        let best = simd::detect_best();
        ScanKind::ALL.into_iter().filter(|k| *k <= best).collect()
    };
    println!(
        "gate: packed scan kinds: [{}]{}",
        packed_kinds
            .iter()
            .map(|k| Variant::Packed(*k).scan_kind())
            .collect::<Vec<_>>()
            .join(", "),
        if env_forced { " (SPC_SCAN_KIND)" } else { "" }
    );

    // `SPC_PREFETCH_SCHEME` pins every non-LLA row to one traversal-prefetch
    // scheme (same forced-vs-default contract as `SPC_SCAN_KIND`); without
    // it the matrix runs under the default stride scheme and the packed
    // baseline list is re-timed under the other three on the same list.
    let scheme_env_forced = std::env::var("SPC_PREFETCH_SCHEME").is_ok();
    let installed_scheme = prefetch::scheme();
    let sweep_schemes: Vec<PrefetchScheme> = if scheme_env_forced {
        Vec::new()
    } else {
        PrefetchScheme::ALL
            .into_iter()
            .filter(|s| *s != installed_scheme)
            .collect()
    };
    println!(
        "gate: prefetch scheme: {}{}; sweep: [{}]",
        installed_scheme.as_str(),
        if scheme_env_forced {
            " (SPC_PREFETCH_SCHEME)"
        } else {
            ""
        },
        sweep_schemes
            .iter()
            .map(|s| s.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );

    // (structure, has a slab scan the SIMD kernels accelerate). Binned
    // structures search per-channel `SeqFifo`s with the scalar packed
    // compare, so they get one packed row regardless of the kind sweep.
    let structures: &[(&str, bool)] = &[
        ("baseline", true),
        ("lla2", true),
        ("lla8", true),
        ("lla32", true),
        ("bins", false),
        ("hashbins", false),
        ("ranktrie", false),
    ];
    let depths: &[usize] = if quick {
        &[64, 256]
    } else {
        &[16, 64, 256, 1024]
    };
    let hits: &[&str] = if quick {
        &["back", "miss"]
    } else {
        &["front", "mid", "back", "miss"]
    };
    let wildcards: &[f64] = if quick { &[0.0] } else { &[0.0, 0.125] };
    let cfg = if quick {
        MeasureCfg {
            samples: 5,
            time: Duration::from_millis(4),
        }
    } else {
        MeasureCfg {
            samples: 8,
            time: Duration::from_millis(12),
        }
    };

    let mut records = Vec::new();
    let run_and_record =
        |cell: &Cell, extras: &[PrefetchScheme], records: &mut Vec<report::Record>| {
            for run in run_cell(cell, &cfg, extras) {
                let rcell = Cell {
                    scheme: run.scheme,
                    ..*cell
                };
                let name = label(&rcell);
                println!(
                    "gate: {name:<52} {:>9.1} ns/op  {:>9.1} B/op  \
                     {:>7.2} lines/op  L1 {:>5.1}%  L3 {:>5.1}%",
                    run.ns, run.bytes, run.sim.lines_per_op, run.sim.l1_hit_pct, run.sim.l3_hit_pct
                );
                records.push(report::Record {
                    name,
                    ns_per_op: run.ns,
                    structure: Some(rcell.structure.into()),
                    depth: Some(rcell.depth as u64),
                    hit: Some(rcell.hit.into()),
                    wildcard: Some(rcell.wildcard),
                    path: Some(rcell.variant.path().into()),
                    scan_kind: Some(rcell.variant.scan_kind().into()),
                    prefetch_scheme: Some(rcell.scheme_column().into()),
                    prefetch_dist: Some(run.dist),
                    bytes_per_op: Some(run.bytes),
                    lines_per_op: Some(run.sim.lines_per_op),
                    l1_hit_pct: Some(run.sim.l1_hit_pct),
                    l3_hit_pct: Some(run.sim.l3_hit_pct),
                    ..report::Record::default()
                });
            }
        };
    // Prefetch-scheme sweep: the packed baseline list (the only walk that
    // prefetches per hop) is re-timed under every non-default scheme ON THE
    // SAME LIST as its main-matrix row, pinned to the best available
    // kernel — the scheme is then the sole variable (same kernel, same heap
    // layout) against the matching main-matrix rows.
    let sweep_kind = *packed_kinds.last().expect("at least portable");
    for &(structure, slab) in structures {
        for &depth in depths {
            for &hit in hits {
                for &wildcard in wildcards {
                    let mut variants: Vec<Variant> = Vec::new();
                    if slab {
                        variants.push(Variant::Fieldwise);
                        variants.extend(packed_kinds.iter().map(|k| Variant::Packed(*k)));
                    } else {
                        variants.push(Variant::Packed(ScanKind::Portable));
                    }
                    for variant in variants {
                        // The LLA walk has no software prefetch, so its
                        // cells run once under `off` instead of under the
                        // installed scheme and the sweep.
                        let lla = structure.starts_with("lla");
                        let cell = Cell {
                            structure,
                            depth,
                            hit,
                            wildcard,
                            variant,
                            scheme: if lla {
                                PrefetchScheme::Off
                            } else {
                                installed_scheme
                            },
                        };
                        let extras: &[PrefetchScheme] =
                            if slab && !lla && variant == Variant::Packed(sweep_kind) {
                                &sweep_schemes
                            } else {
                                &[]
                            };
                        run_and_record(&cell, extras, &mut records);
                    }
                }
            }
        }
    }

    // SIMD-vs-scalar summary over the deep-scan cells the acceptance gate
    // keys on: full-scan misses and back-of-list hits at depth >= 256. The
    // lines/op delta is printed alongside so a timing win is attributable
    // (same lines -> compute win; fewer lines -> locality win).
    let deep = |r: &&report::Record| {
        r.depth.unwrap_or(0) >= 256
            && r.wildcard == Some(0.0)
            && matches!(r.hit.as_deref(), Some("miss") | Some("back"))
    };
    println!("\ngate: packed vs fieldwise (deep scans, wildcard 0):");
    for r in records.iter().filter(deep) {
        if r.scan_kind.as_deref() != Some("fieldwise") {
            continue;
        }
        let new_name = r.name.replace("/fieldwise", "/packed");
        if let Some(p) = records.iter().find(|x| x.name == new_name) {
            let gain = 100.0 * (r.ns_per_op - p.ns_per_op) / r.ns_per_op;
            println!(
                "gate:   {:<42} {:>8.1} -> {:>8.1} ns/op  ({gain:+.1}%)",
                new_name, r.ns_per_op, p.ns_per_op
            );
        }
    }
    for simd_kind in ["simd128", "simd256"] {
        let mut shown = false;
        for r in records.iter().filter(deep) {
            if r.scan_kind.as_deref() != Some(simd_kind) {
                continue;
            }
            let scalar_name = r.name.replace(&format!("/{simd_kind}"), "/packed");
            if let Some(p) = records.iter().find(|x| x.name == scalar_name) {
                if !shown {
                    println!("\ngate: {simd_kind} vs packed scalar (deep scans, wildcard 0):");
                    shown = true;
                }
                let gain = 100.0 * (p.ns_per_op - r.ns_per_op) / p.ns_per_op;
                let dl = r.lines_per_op.unwrap_or(0.0) - p.lines_per_op.unwrap_or(0.0);
                println!(
                    "gate:   {:<42} {:>8.1} -> {:>8.1} ns/op  ({gain:+.1}%)  \
                     lines/op {dl:+.2}",
                    r.name, p.ns_per_op, r.ns_per_op
                );
            }
        }
    }

    // Scheme summary over the same deep-scan cells: dependent chase and the
    // adaptive controller vs the fixed-distance stride default. The L1 delta
    // comes from the cachesim replay (its chase unit converts warm L2 hits
    // into L1 hits), attributing the timing change to locality.
    for scheme in ["chase", "adaptive"] {
        let mut shown = false;
        for r in records.iter().filter(deep) {
            if r.prefetch_scheme.as_deref() != Some(scheme) {
                continue;
            }
            let stride_name = r.name.replace(&format!("/{scheme}"), "/stride");
            if let Some(p) = records.iter().find(|x| x.name == stride_name) {
                if !shown {
                    println!("\ngate: {scheme} vs stride (deep scans, wildcard 0):");
                    shown = true;
                }
                let gain = 100.0 * (p.ns_per_op - r.ns_per_op) / p.ns_per_op;
                let dl1 = r.l1_hit_pct.unwrap_or(0.0) - p.l1_hit_pct.unwrap_or(0.0);
                println!(
                    "gate:   {:<48} {:>8.1} -> {:>8.1} ns/op  ({gain:+.1}%)  \
                     L1 {dl1:+.1}pp",
                    r.name, p.ns_per_op, r.ns_per_op
                );
            }
        }
    }

    report::write_json(std::path::Path::new(&out), &records, quick)
        .unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("gate: wrote {} records to {out}", records.len());
}
