//! `resident-deep` and `evicting-deep`: one closed-loop thread driving a
//! bounded `MatchEngine::lla_cacheline()` behind a standing window of
//! receives that never match, so every arrival walks the whole window.
//!
//! The two differ only in window depth and in what happens between flows.
//! On `resident-deep` nothing does, so the 1024-entry window stays in the
//! private caches and the list walk's instruction cost (scan kernels,
//! prefetch issue, layout) sets the pace. On `evicting-deep` a compute phase
//! streams a buffer four times this core's L2 before every flow — the
//! paper's "computation evicts the match list" regime — so memory latency
//! sets the pace instead. The eviction streams a buffer the benchmark owns;
//! it never touches (or needs to know) the list's memory.

use std::hint::black_box;
use std::time::Instant;

use spc_cachesim::{ArchProfile, MemSim};
use spc_core::engine::configs::{lla_cacheline, LlaEngine};
use spc_core::{
    AccessSink, CountingSink, Envelope, NullSink, QueueBounds, RecvSpec, TryArrivalOutcome,
    TryRecvOutcome,
};
use spc_workload::drive::STANDING_TAG_BASE;
use spc_workload::{prime_standing, Popularity, Request, RequestGen, TrafficCfg};

use crate::measure::{ns, pct, ratio, thread_cpu_ns, time_setups, traced, Grid, Series, INTERVALS};
use crate::report::{host, provenance, Report};

/// The engine both deep workloads drive.
pub type Engine = LlaEngine<2, 3>;

/// A deep workload's shape.
pub struct Deep {
    /// Workload name.
    pub name: &'static str,
    /// Standing receives ahead of every flow's own entry.
    pub window: usize,
    /// Whether a compute phase evicts the private caches before each flow.
    pub evict: bool,
}

/// The list walk with the list in cache.
pub const RESIDENT: Deep = Deep {
    name: "resident-deep",
    window: 1024,
    evict: false,
};

/// The list walk after computation evicted the list from L1/L2.
pub const EVICTING: Deep = Deep {
    name: "evicting-deep",
    window: 256,
    evict: true,
};

const SOURCES: u32 = 256;
/// Share of flows whose message arrives before its receive.
const UNEXPECTED: f64 = 0.275;
/// Eviction buffer size, in multiples of the L2 it must evict.
const EVICT_L2_MULTIPLE: usize = 4;
/// Flows the cache-simulator replay runs.
pub const SIM_FLOWS: usize = 300;

/// The flow stream: uniform sources, flow tags below the standing window's
/// tag space (so a flow only ever matches its own other half).
pub fn traffic(seed: u64) -> TrafficCfg {
    TrafficCfg {
        sources: SOURCES,
        tags: STANDING_TAG_BASE,
        popularity: Popularity::Uniform,
        unexpected_frac: UNEXPECTED,
        churn: None,
        seed,
    }
}

/// A primed engine: `window` standing receives spread uniformly over the
/// sources, and admission caps that leave room for exactly one flow in
/// flight — a flow that leaves anything behind makes the next one refused.
pub fn build(window: usize) -> Engine {
    let mut eng = lla_cacheline();
    eng.set_bounds(QueueBounds {
        max_prq: window + 1,
        max_umq: 1,
    });
    let sources: Vec<i32> = (0..SOURCES as i32).collect();
    prime_standing(&mut eng, &sources, window);
    eng.reset_stats();
    eng
}

/// How one flow ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowEnd {
    /// Matched to its own handle.
    Matched,
    /// Refused by the admission caps.
    Refused,
    /// Both halves queued without meeting.
    Unmatched,
    /// Matched to another flow's handle.
    Wrong(u64),
}

/// Time spent in calls into each layer during traced intervals.
#[derive(Default)]
struct Spans {
    post_ns: u64,
    arrival_ns: u64,
    gen_ns: u64,
    compute_ns: u64,
    wall_ns: u64,
    flows: u64,
}

/// Runs `f`, adding its duration to `acc` when `TRACE`.
#[inline(always)]
fn timed<T, const TRACE: bool>(acc: &mut u64, f: impl FnOnce() -> T) -> T {
    let t = TRACE.then(Instant::now);
    let out = f();
    if let Some(t) = t {
        *acc += ns(t.elapsed());
    }
    out
}

/// Runs one flow — receive post plus the arrival that matches it, in the
/// request's order — through the engine with handle `h`, timing each call
/// when `TRACE`.
#[inline(always)]
fn flow<S: AccessSink, const TRACE: bool>(
    eng: &mut Engine,
    req: Request,
    h: u64,
    sink: &mut S,
    spans: &mut Spans,
) -> FlowEnd {
    let spec = RecvSpec::new(req.source, req.tag, 0);
    let env = Envelope::new(req.source, req.tag, 0);
    if req.unexpected {
        match timed::<_, TRACE>(&mut spans.arrival_ns, || eng.try_arrival_sink(env, h, sink)) {
            TryArrivalOutcome::Queued => {}
            TryArrivalOutcome::RejectedUmqFull { .. } => return FlowEnd::Refused,
            TryArrivalOutcome::MatchedPosted { request, .. } => return FlowEnd::Wrong(request),
        }
        match timed::<_, TRACE>(&mut spans.post_ns, || eng.try_post_recv_sink(spec, h, sink)) {
            TryRecvOutcome::MatchedUnexpected { payload, .. } if payload == h => FlowEnd::Matched,
            TryRecvOutcome::MatchedUnexpected { payload, .. } => FlowEnd::Wrong(payload),
            TryRecvOutcome::Posted => FlowEnd::Unmatched,
            TryRecvOutcome::RejectedPrqFull { .. } => FlowEnd::Refused,
        }
    } else {
        match timed::<_, TRACE>(&mut spans.post_ns, || eng.try_post_recv_sink(spec, h, sink)) {
            TryRecvOutcome::Posted => {}
            TryRecvOutcome::RejectedPrqFull { .. } => return FlowEnd::Refused,
            TryRecvOutcome::MatchedUnexpected { payload, .. } => return FlowEnd::Wrong(payload),
        }
        match timed::<_, TRACE>(&mut spans.arrival_ns, || eng.try_arrival_sink(env, h, sink)) {
            TryArrivalOutcome::MatchedPosted { request, .. } if request == h => FlowEnd::Matched,
            TryArrivalOutcome::MatchedPosted { request, .. } => FlowEnd::Wrong(request),
            TryArrivalOutcome::Queued => FlowEnd::Unmatched,
            TryArrivalOutcome::RejectedUmqFull { .. } => FlowEnd::Refused,
        }
    }
}

/// The compute phase: streams a buffer the benchmark owns, one load per
/// cache line.
struct Evictor {
    buf: Vec<u64>,
}

impl Evictor {
    fn new(bytes: usize) -> Option<Self> {
        (bytes > 0).then(|| Self {
            buf: vec![1; bytes / 8],
        })
    }

    fn stream(&self) -> u64 {
        let buf = black_box(self.buf.as_slice());
        let mut s = 0u64;
        for line in buf.chunks_exact(8) {
            s = s.wrapping_add(line[0]);
        }
        black_box(s)
    }
}

/// Flow outcome counts.
#[derive(Default)]
struct Tally {
    flows: u64,
    matched: u64,
    refused: u64,
    unmatched: u64,
    wrong: Vec<(u64, u64)>,
}

impl Tally {
    fn note(&mut self, h: u64, end: FlowEnd) {
        self.flows += 1;
        match end {
            FlowEnd::Matched => self.matched += 1,
            FlowEnd::Refused => self.refused += 1,
            FlowEnd::Unmatched => self.unmatched += 1,
            FlowEnd::Wrong(got) => self.wrong.push((h, got)),
        }
    }
}

/// Everything one interval needs, so the traced and untraced
/// instantiations share a body.
struct State {
    eng: Engine,
    evict: Option<Evictor>,
    gen: RequestGen,
    lat: Vec<u64>,
    tally: Tally,
    spans: Spans,
    next_handle: u64,
}

/// Runs flows until `end`; returns the flows run and the summed per-flow
/// engine time (the compute phase excluded).
fn interval<const TRACE: bool>(st: &mut State, end: Instant) -> (u64, u64) {
    let (mut flows, mut busy) = (0u64, 0u64);
    let start = Instant::now();
    loop {
        let g = TRACE.then(Instant::now);
        let req = st.gen.next_request();
        if let Some(g) = g {
            st.spans.gen_ns += ns(g.elapsed());
        }
        if let Some(ev) = &st.evict {
            let c = TRACE.then(Instant::now);
            ev.stream();
            if let Some(c) = c {
                st.spans.compute_ns += ns(c.elapsed());
            }
        }
        let h = st.next_handle;
        st.next_handle += 1;
        let t0 = Instant::now();
        let end_state = flow::<NullSink, TRACE>(&mut st.eng, req, h, &mut NullSink, &mut st.spans);
        let t1 = Instant::now();
        let d = ns(t1 - t0);
        st.lat.push(d);
        busy += d;
        flows += 1;
        st.tally.note(h, end_state);
        if t1 >= end {
            break;
        }
    }
    if TRACE {
        st.spans.flows += flows;
        st.spans.wall_ns += ns(start.elapsed());
    }
    (flows, busy)
}

/// Runs a deep workload for `seconds` and reports it.
pub fn run(w: &Deep, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut r = Report::new(w.name, "flow");
    let evict_bytes = if w.evict {
        EVICT_L2_MULTIPLE * host::l2_bytes().0
    } else {
        0
    };
    provenance(&mut r, seed, evict_bytes);
    r.info("window", w.window);

    let (setup_s, (eng, evict)) = time_setups(|| (build(w.window), Evictor::new(evict_bytes)));
    r.set("setup_s", setup_s);
    let mut st = State {
        eng,
        evict,
        gen: RequestGen::new(traffic(seed)),
        lat: Vec::with_capacity(1 << 20),
        tally: Tally::default(),
        spans: Spans::default(),
        next_handle: 0,
    };

    let (mut plain, mut traced_series) = (Series::default(), Series::default());
    let grid = Grid::new(Instant::now(), seconds);
    for k in 0..INTERVALS {
        st.lat.clear();
        let t = traced(trace, k);
        let cpu = thread_cpu_ns();
        let (flows, busy) = if t {
            interval::<true>(&mut st, grid.at(k + 1))
        } else {
            interval::<false>(&mut st, grid.at(k + 1))
        };
        // With a compute phase between flows, the rate is over the timed
        // flows alone; otherwise over the thread's CPU time in the
        // interval.
        let secs = if w.evict {
            busy as f64 / 1e9
        } else {
            (thread_cpu_ns() - cpu) as f64 / 1e9
        };
        let series = if t { &mut traced_series } else { &mut plain };
        series.close(flows, secs, &mut st.lat);
    }
    r.set("flows_per_s", plain.rate());
    r.set("flow_p50_us", plain.p50_us());
    r.set("flow_p75_us", plain.p75_us());
    r.set("flow_p90_us", plain.p90_us());
    r.set("flow_p99_us", plain.p99_us());
    r.info("flow_samples", plain.samples);

    // Correctness: every flow matched its own handle, and the queues are
    // back to the standing window.
    let tally = &st.tally;
    r.attempted = tally.flows;
    r.failed = tally.refused + tally.unmatched + tally.wrong.len() as u64;
    if let Some(&(h, got)) = tally.wrong.first() {
        r.require(false, || {
            format!(
                "{} flows matched a foreign handle (first: flow {h} got {got})",
                tally.wrong.len()
            )
        });
    }
    let stats = st.eng.stats().clone();
    r.require(
        st.eng.prq_len() == w.window && st.eng.umq_len() == 0,
        || {
            format!(
                "queues not back to the standing window: prq {} (want {}), umq {}",
                st.eng.prq_len(),
                w.window,
                st.eng.umq_len()
            )
        },
    );
    r.require(stats.prq_hits + stats.umq_hits == tally.matched, || {
        format!(
            "prq_hits {} + umq_hits {} != {} completed flows",
            stats.prq_hits, stats.umq_hits, tally.matched
        )
    });

    // Self-check: the depth and mix the workload declares.
    let prq_depth = stats.prq_search.mean();
    let umq_depth = stats.umq_search.mean();
    let arrivals = stats.prq_hits + stats.umq_appends + stats.umq_rejections;
    let match_pct = pct(stats.prq_hits as f64, arrivals as f64);
    r.set("engine.prq_depth_mean", prq_depth);
    r.set("engine.umq_depth_mean", umq_depth);
    r.set("engine.match_pct", match_pct);
    r.expect_range(
        "engine.prq_depth_mean",
        prq_depth,
        w.window as f64,
        w.window as f64 + 1.0,
    );
    r.expect_range("engine.umq_depth_mean", umq_depth, 0.25, 0.30);
    r.expect_range("engine.match_pct", match_pct, 70.0, 75.0);

    // The list layer in the cache simulator: the same seeded flows,
    // exact counts.
    let sim = replay(w, seed, SIM_FLOWS);
    r.set("list.lines_per_search", sim.lines_per_flow());
    r.set("list.l1_hit_pct", sim.hit_pct(sim.l1));
    r.set("list.l2_hit_pct", sim.hit_pct(sim.l2));
    r.set("list.l3_hit_pct", sim.hit_pct(sim.l3));
    if w.evict {
        let resident = replay(&RESIDENT, seed, SIM_FLOWS);
        let (ev, res) = (
            sim.hit_pct(sim.l1 + sim.l2),
            resident.hit_pct(resident.l1 + resident.l2),
        );
        r.expect_range("sim L1+L2 hit % below resident-deep's", ev, 0.0, res - 1.0);
    }

    if trace {
        let s = &st.spans;
        let per_flow = |t: u64| ratio(t as f64, s.flows as f64);
        let arrival_ns = per_flow(s.arrival_ns);
        r.set("engine.post_ns", per_flow(s.post_ns));
        r.set("engine.arrival_ns", arrival_ns);
        r.set("list.ns_per_entry", ratio(arrival_ns, prq_depth));
        r.set("workload.gen_ns_per_flow", per_flow(s.gen_ns));
        let timed = (s.wall_ns - s.compute_ns) as f64;
        r.set(
            "split.engine_pct",
            pct((s.post_ns + s.arrival_ns) as f64, timed),
        );
        r.set("split.workload_pct", pct(s.gen_ns as f64, timed));
        r.set(
            "trace.overhead_pct",
            pct(plain.rate() - traced_series.rate(), plain.rate()),
        );
    }
    r.set("rss_peak_mib", host::rss_peak_mib());
    r
}

/// Cache-simulator counts over the replayed flows' engine calls.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimCounts {
    /// Flows replayed.
    pub flows: u64,
    /// Distinct cache lines each flow's engine calls touched, summed.
    pub lines: u64,
    /// Demand accesses served by L1.
    pub l1: u64,
    /// Demand accesses served by L2.
    pub l2: u64,
    /// Demand accesses served by L3.
    pub l3: u64,
    /// Demand accesses served by DRAM.
    pub dram: u64,
}

impl SimCounts {
    /// Mean distinct lines per flow.
    pub fn lines_per_flow(&self) -> f64 {
        ratio(self.lines as f64, self.flows as f64)
    }

    /// `hits` as a share of all demand accesses.
    pub fn hit_pct(&self, hits: u64) -> f64 {
        pct(
            hits as f64,
            (self.l1 + self.l2 + self.l3 + self.dram) as f64,
        )
    }
}

/// Forwards a flow's accesses to the simulator and to a line counter.
struct Tee<'a> {
    mem: &'a mut MemSim,
    lines: &'a mut CountingSink,
}

impl AccessSink for Tee<'_> {
    fn read(&mut self, addr: u64, len: u32) {
        self.lines.read(addr, len);
        self.mem.read(addr, len);
    }

    fn write(&mut self, addr: u64, len: u32) {
        self.lines.write(addr, len);
        self.mem.write(addr, len);
    }
}

/// Replays the first `flows` flows of the workload's seeded stream
/// through the same engine configuration in a simulated Broadwell core.
/// On `evicting-deep` a simulated compute phase streams four times the
/// simulated L2 before each flow. Only the engine calls' accesses are
/// counted. Deterministic: the same seed gives the same counts.
pub fn replay(w: &Deep, seed: u64, flows: usize) -> SimCounts {
    let prof = ArchProfile::broadwell();
    let pollute = (EVICT_L2_MULTIPLE * prof.l2.size) as u64;
    let mut mem = MemSim::new(prof);
    let mut eng = build(w.window);
    let mut gen = RequestGen::new(traffic(seed));
    let mut lines = CountingSink::new();
    let mut c = SimCounts::default();
    for h in 0..flows as u64 {
        let req = gen.next_request();
        if w.evict {
            mem.pollute(pollute);
        }
        let before = mem.stats();
        lines.reset();
        let end = flow::<_, false>(
            &mut eng,
            req,
            h,
            &mut Tee {
                mem: &mut mem,
                lines: &mut lines,
            },
            &mut Spans::default(),
        );
        assert_eq!(end, FlowEnd::Matched, "replayed flow {h} did not match");
        let after = mem.stats();
        c.flows += 1;
        c.lines += lines.distinct_lines() as u64;
        c.l1 += after.l1_hits - before.l1_hits;
        c.l2 += after.l2_hits - before.l2_hits;
        c.l3 += after.l3_hits - before.l3_hits;
        c.dram += after.dram_loads - before.dram_loads;
    }
    c
}
