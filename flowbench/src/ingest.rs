//! `ingest-shallow`: the batched write path with no standing queue.
//!
//! A producer thread plays the network: it posts and delivers flows through
//! a `BatchedEngine` producer handle (8 Lla shards), with Zipf-1 source
//! popularity over 256 sources, a rotating hot set, and 1 % `ANY_SOURCE`
//! posts. A progress thread drains the rings with `flush_all` and observes
//! completions. Nothing stands in the queues, so each search is 0–2
//! entries deep: the rings, the drain and the shard locks do the work and
//! the list walk does almost none.
//!
//! The first half of the run is an open loop at a fixed absolute offered
//! rate ([`OFFERED_PER_S`]); a flow's latency runs from the time it was due
//! to the drain that applied it, so a stall also charges the flows queued
//! behind it. The second half is a saturation loop — the producer pushes as
//! fast as the engine takes flows — and gives the throughput.
//!
//! `ingest-shallow` posts each `ANY_SOURCE` receive ahead of its message.
//! [`run`] with `wild_arrival_first` set is `ingest-wildcard-order`, which
//! also lets a wildcard flow's message arrive first, as the concrete flows
//! do. That order trips a known `spc-core` defect — a wildcard post can run
//! ahead of the producer's own arrival when the progress thread has popped
//! it from the ring but not yet applied it — so that workload fails its
//! program-order check until `BatchedEngine::flush_producer` waits for a
//! drain in flight. See the README's finding.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use spc_core::entry::{PostedEntry, UnexpectedEntry};
use spc_core::ingest::BatchedEngine;
use spc_core::list::Lla;
use spc_core::{Envelope, RecvOutcome, RecvSpec, ANY_SOURCE};
use spc_rng::{Rng, SeedableRng, StdRng};
use spc_workload::drive::STANDING_TAG_BASE;
use spc_workload::{Churn, Popularity, RequestGen, TrafficCfg};

use crate::measure::{
    median, ns, pct, quantile, ratio, run_pair, time_setups, traced, Grid, Series, INTERVALS,
};
use crate::report::{host, provenance, Report};

/// The batched engine both sharded workloads drive.
pub type Batched = BatchedEngine<Lla<PostedEntry, 2>, Lla<UnexpectedEntry, 3>>;

/// Shards of the batched engine.
pub const SHARDS: usize = 8;
/// Ring slots per (producer, shard).
pub const BATCH: usize = 64;
/// The open-loop phase's offered rate, flows per second.
pub const OFFERED_PER_S: f64 = 250_000.0;
const WILDCARD_FRAC: f64 = 0.01;
const UNEXPECTED: f64 = 0.275;
/// Due-time slots shared by the two threads; the producer never runs more
/// than half of them ahead of the progress thread.
const DUE_SLOTS: u64 = 1 << 16;
/// Marks a due-time slot as an open-loop flow.
const OPEN: u64 = 1 << 63;

/// A fresh batched engine with one producer.
pub fn engine() -> Batched {
    BatchedEngine::new(SHARDS, 1, BATCH, Lla::new, Lla::new)
}

/// A counter on a cache line of its own, so the producer's and the
/// progress thread's counters do not share one.
#[repr(align(64))]
#[derive(Default)]
struct Line(AtomicU64);

struct Shared {
    eng: Batched,
    /// Flows whose ops are all enqueued (Release; pairs with the progress
    /// thread's Acquire load, which then reads their due-time slots).
    pushed: Line,
    /// Flows the progress thread has seen applied.
    observed: Line,
    stop: AtomicBool,
    dues: Vec<AtomicU64>,
}

#[derive(Default)]
struct ProducerOut {
    flows: u64,
    direct: u64,
    wrong: u64,
    reordered: u64,
    gen_ns: u64,
    gen_flows: u64,
    ingest_ns: u64,
    ingest_calls: u64,
    late_ns: Vec<u64>,
}

#[derive(Default)]
struct ProgressOut {
    drained: u64,
    flush_ns: u64,
    flush_ops: u64,
    flushes: u64,
    backlog_max: usize,
    completed: Vec<u64>,
    lat: Vec<Vec<u64>>,
}

fn traffic(seed: u64) -> TrafficCfg {
    TrafficCfg {
        sources: 256,
        tags: STANDING_TAG_BASE,
        popularity: Popularity::Zipf { s: 1.0 },
        unexpected_frac: UNEXPECTED,
        churn: Some(Churn {
            every: 4096,
            stride: 17,
        }),
        seed,
    }
}

fn producer(
    sh: &Shared,
    grid: Grid,
    seed: u64,
    trace: bool,
    wild_arrival_first: bool,
) -> ProducerOut {
    let p = sh.eng.producer(0);
    let mut gen = RequestGen::new(traffic(seed));
    let mut wild = StdRng::seed_from_u64(seed ^ 0x5749_4c44);
    let period_ns = 1e9 / OFFERED_PER_S;
    let open_end = ns(grid.at(INTERVALS / 2) - grid.start);
    let mut out = ProducerOut::default();
    let mut i = 0u64;
    loop {
        let now = Instant::now();
        let k = grid.interval(now);
        if k >= INTERVALS {
            break;
        }
        if i.is_multiple_of(1024) {
            while i - sh.observed.0.load(Ordering::Acquire) >= DUE_SLOTS / 2 {
                std::hint::spin_loop();
            }
        }
        let sched = (i as f64 * period_ns) as u64;
        let open = sched < open_end;
        // Spans are taken in the traced saturation intervals; lateness in
        // the traced open-loop ones.
        let tr = traced(trace, k);
        let g = (tr && !open).then(Instant::now);
        let req = gen.next_request();
        let any = wild.gen_bool(WILDCARD_FRAC);
        if let Some(g) = g {
            out.gen_ns += ns(g.elapsed());
            out.gen_flows += 1;
        }
        let due = if open {
            let due = grid.start + Duration::from_nanos(sched);
            let mut t = Instant::now();
            while t < due {
                std::hint::spin_loop();
                t = Instant::now();
            }
            if tr {
                out.late_ns.push(ns(t - due));
            }
            sched | OPEN
        } else {
            ns(Instant::now() - grid.start)
        };
        let spec = RecvSpec::new(if any { ANY_SOURCE } else { req.source }, req.tag, 0);
        let env = Envelope::new(req.source, req.tag, 0);
        let arrival_first = req.unexpected && (wild_arrival_first || !any);
        let e = (tr && !open).then(Instant::now);
        let direct = if arrival_first {
            p.arrival(env, i);
            p.post_recv(spec, i)
        } else {
            let d = p.post_recv(spec, i);
            p.arrival(env, i);
            d
        };
        if let Some(e) = e {
            out.ingest_ns += ns(e.elapsed());
            out.ingest_calls += 2;
        }
        if let Some((_, outcome)) = direct {
            // A wildcard post runs directly after flushing this
            // producer's rings, so it must observe the producer's earlier
            // ops: a match must be this flow's own message, and a post
            // whose message this producer enqueued first must match it
            // rather than queue.
            out.direct += 1;
            match outcome {
                RecvOutcome::MatchedUnexpected { payload, .. } => {
                    out.wrong += u64::from(!arrival_first || payload != i);
                }
                RecvOutcome::Posted => out.reordered += u64::from(arrival_first),
            }
        }
        sh.dues[(i % DUE_SLOTS) as usize].store(due, Ordering::Relaxed);
        i += 1;
        sh.pushed.0.store(i, Ordering::Release);
    }
    out.flows = i;
    sh.stop.store(true, Ordering::Release);
    out
}

fn progress(sh: &Shared, grid: Grid, trace: bool) -> ProgressOut {
    let half = INTERVALS / 2;
    let len_ns = ns(grid.len);
    let cap = (OFFERED_PER_S * grid.len.as_secs_f64() * 1.1) as usize;
    let mut out = ProgressOut {
        completed: vec![0; INTERVALS],
        lat: (0..half).map(|_| Vec::with_capacity(cap)).collect(),
        ..Default::default()
    };
    let mut done = 0u64;
    let mut k = 0;
    loop {
        let stopping = sh.stop.load(Ordering::Acquire);
        let n = sh.pushed.0.load(Ordering::Acquire);
        let tr = traced(trace, k) && k >= half;
        let f = tr.then(Instant::now);
        if tr {
            // `pending()` reads each ring's tail before its head, so a
            // drain by the producer's own flush between the two loads
            // wraps that ring's length. The rings hold at most
            // `SHARDS * BATCH` ops; a larger reading is such a tear.
            let pending = sh.eng.pending();
            if pending <= SHARDS * BATCH {
                out.backlog_max = out.backlog_max.max(pending);
            }
        }
        let applied = sh.eng.flush_all();
        let t = Instant::now();
        if applied == 0 && n == done {
            // Idle: give the core to anything else runnable rather than
            // let it preempt the producer.
            std::thread::yield_now();
        }
        if let Some(f) = f {
            out.flush_ns += ns(t - f);
            out.flush_ops += applied as u64;
            out.flushes += u64::from(applied > 0);
        }
        out.drained += applied as u64;
        k = grid.interval(t);
        if n > done {
            let t_ns = ns(t - grid.start);
            for idx in done..n {
                let slot = sh.dues[(idx % DUE_SLOTS) as usize].load(Ordering::Relaxed);
                if slot & OPEN != 0 {
                    let due = slot & !OPEN;
                    let kd = ((due / len_ns) as usize).min(half - 1);
                    out.lat[kd].push(t_ns.saturating_sub(due));
                }
            }
            if k < INTERVALS {
                out.completed[k] += n - done;
            }
            done = n;
            sh.observed.0.store(done, Ordering::Release);
        }
        if stopping && done == n {
            return out;
        }
    }
}

/// Runs `ingest-shallow` for `seconds` and reports it; with
/// `wild_arrival_first`, runs `ingest-wildcard-order` instead.
pub fn run(seed: u64, seconds: f64, trace: bool, wild_arrival_first: bool) -> Report {
    let name = if wild_arrival_first {
        "ingest-wildcard-order"
    } else {
        "ingest-shallow"
    };
    let mut r = Report::new(name, "flow");
    provenance(&mut r, seed, 0);
    r.info("shards", SHARDS);
    r.info("batch", BATCH);
    r.info("offered_per_s", OFFERED_PER_S);

    let (setup_s, sh) = time_setups(|| Shared {
        eng: engine(),
        pushed: Line::default(),
        observed: Line::default(),
        stop: AtomicBool::new(false),
        dues: (0..DUE_SLOTS).map(|_| AtomicU64::new(0)).collect(),
    });
    let (spawn_s, grid, prod, mut prog) = run_pair(
        seconds,
        |g| producer(&sh, g, seed, trace, wild_arrival_first),
        |g| progress(&sh, g, trace),
    );
    r.set("setup_s", setup_s);
    r.set("spawn_s", spawn_s);
    let final_drain = sh.eng.flush_all() as u64;

    // Open-loop latency per due interval; saturation rate per completion
    // interval, traced and untraced apart.
    let half = INTERVALS / 2;
    let secs = grid.len.as_secs_f64();
    let (mut lat, mut open_rate) = (Series::default(), Vec::new());
    for (k, l) in prog.lat.iter_mut().enumerate() {
        if !traced(trace, k) {
            open_rate.push(prog.completed[k] as f64 / secs);
            lat.close(l.len() as u64, secs, l);
        }
    }
    let (mut sat, mut sat_traced) = (Series::default(), Series::default());
    for k in half..INTERVALS {
        let series = if traced(trace, k) {
            &mut sat_traced
        } else {
            &mut sat
        };
        series.close(prog.completed[k], secs, &mut []);
    }
    r.set("flows_per_s", sat.rate());
    r.set("flow_p50_us", lat.p50_us());
    r.set("flow_p75_us", lat.p75_us());
    r.set("flow_p90_us", lat.p90_us());
    r.set("flow_p99_us", lat.p99_us());
    r.info("flow_samples", lat.samples);
    r.info("saturation_flows", sat.ops);

    // Correctness: every enqueued op drained, every flow matched (tags are
    // unique per in-flight flow, so empty queues mean each flow met its
    // own other half), and the counts reconcile.
    let eng = &sh.eng;
    let stats = eng.stats();
    let (prq, umq) = eng.queue_lens();
    r.attempted = prod.flows;
    r.failed = prod.wrong + prod.reordered + (prq + umq) as u64;
    r.require(
        eng.pending() == 0 && eng.enqueued() == eng.drained(),
        || {
            format!(
                "rings not drained: pending {} enqueued {} drained {}",
                eng.pending(),
                eng.enqueued(),
                eng.drained()
            )
        },
    );
    r.require(prq == 0 && umq == 0, || {
        format!("{prq} receives and {umq} messages left unmatched")
    });
    r.require(prod.wrong == 0, || {
        format!("{} wildcard posts matched the wrong message", prod.wrong)
    });
    r.require(prod.reordered == 0, || {
        format!(
            "{} wildcard posts queued although this producer enqueued their \
             message first (program order per producer broken)",
            prod.reordered
        )
    });
    r.require(stats.prq_hits + stats.umq_hits == prod.flows, || {
        format!(
            "prq_hits {} + umq_hits {} != {} flows",
            stats.prq_hits, stats.umq_hits, prod.flows
        )
    });
    if let Err(e) = eng.validate() {
        r.require(false, || format!("engine invariants: {e}"));
    }

    // Self-check: shallow searches, the declared mix, and an engine that
    // kept up with the open loop (completions at the offered rate, so no
    // backlog grew).
    let prq_depth = stats.prq_search.mean();
    let umq_depth = stats.umq_search.mean();
    let arrivals = stats.prq_hits + stats.umq_appends;
    let match_pct = pct(stats.prq_hits as f64, arrivals as f64);
    let offered = median(&open_rate);
    r.set("engine.prq_depth_mean", prq_depth);
    r.set("engine.umq_depth_mean", umq_depth);
    r.set("engine.match_pct", match_pct);
    r.set("open_loop_flows_per_s", offered);
    r.expect_range("engine.prq_depth_mean", prq_depth, 0.0, 2.0);
    r.expect_range("engine.umq_depth_mean", umq_depth, 0.0, 2.0);
    r.expect_range("engine.match_pct", match_pct, 70.0, 75.0);
    r.expect_range(
        "open_loop_flows_per_s",
        offered,
        0.98 * OFFERED_PER_S,
        1.02 * OFFERED_PER_S,
    );

    // Per-layer counts over the whole run.
    let ops = eng.enqueued() + prod.direct;
    let locks = eng.lock_stats();
    let explicit = prog.drained + final_drain;
    r.set(
        "ingest.self_flush_pct",
        pct(
            eng.drained().saturating_sub(explicit) as f64,
            eng.drained() as f64,
        ),
    );
    r.set(
        "shard.lock_acq_per_op",
        ratio(locks.acquisitions as f64, ops as f64),
    );
    r.set("shard.contended_pct", 100.0 * locks.contention_ratio());
    r.set("shard.direct_op_pct", pct(prod.direct as f64, ops as f64));

    if trace {
        // Spans from the traced saturation intervals (the gate on lateness
        // is the traced open-loop intervals).
        let wall =
            ns(grid.len) as f64 * (half..INTERVALS).filter(|&k| traced(true, k)).count() as f64;
        r.set(
            "ingest.enqueue_ns",
            ratio(prod.ingest_ns as f64, prod.ingest_calls as f64),
        );
        r.set("ingest.backlog_max", prog.backlog_max as f64);
        r.set(
            "ingest.ops_per_flush",
            ratio(prog.flush_ops as f64, prog.flushes as f64),
        );
        r.set(
            "shard.flush_ns_per_op",
            ratio(prog.flush_ns as f64, prog.flush_ops as f64),
        );
        r.set(
            "workload.gen_ns_per_flow",
            ratio(prod.gen_ns as f64, prod.gen_flows as f64),
        );
        let mut late = prod.late_ns.clone();
        late.sort_unstable();
        r.set("workload.late_p99_us", quantile(&late, 0.99) / 1e3);
        r.set("split.ingest_pct", pct(prod.ingest_ns as f64, wall));
        r.set("split.shard_pct", pct(prog.flush_ns as f64, wall));
        r.set("split.workload_pct", pct(prod.gen_ns as f64, wall));
        r.set(
            "trace.overhead_pct",
            pct(sat.rate() - sat_traced.rate(), sat.rate()),
        );
    }
    r.set("rss_peak_mib", host::rss_peak_mib());
    r
}
