//! What one workload run reports: every metric it measured, the
//! configuration it ran under, its correctness and self-check verdicts, and
//! the JSON line that ends its output.

use std::collections::BTreeMap;

/// The end-to-end metrics, printed by an untraced run (`--trace 0`). An
/// "op" is the workload's primary operation: a matched flow on the flow
/// workloads, an `iprobe` on `probe-poll`. The gated tail is p75: on a
/// shared two-core host the hypervisor stalls a busy core for milliseconds
/// at a time, up to a tenth of the time, so an open loop's p90 and p99
/// measure the host. The human-readable lines give p90 and p99 as well.
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "ops_per_s",
    "op_p50_us",
    "op_p75_us",
    "rss_peak_mib",
];

/// The per-layer metrics, printed by a traced run (`--trace 1`). A layer a
/// workload does not call reports 0.
pub const PER_LAYER: &[&str] = &[
    "engine.post_ns",
    "engine.arrival_ns",
    "engine.prq_depth_mean",
    "engine.umq_depth_mean",
    "engine.match_pct",
    "list.ns_per_entry",
    "list.lines_per_search",
    "list.l1_hit_pct",
    "list.l2_hit_pct",
    "list.l3_hit_pct",
    "ingest.enqueue_ns",
    "ingest.self_flush_pct",
    "ingest.backlog_max",
    "ingest.ops_per_flush",
    "shard.flush_ns_per_op",
    "shard.lock_acq_per_op",
    "shard.contended_pct",
    "shard.direct_op_pct",
    "seqsnap.iprobe_ns",
    "seqsnap.retries_per_probe",
    "seqsnap.fallbacks_per_probe",
    "seqsnap.probe_hit_pct",
    "workload.gen_ns_per_flow",
    "workload.late_p99_us",
    "split.engine_pct",
    "split.ingest_pct",
    "split.shard_pct",
    "split.seqsnap_pct",
    "split.workload_pct",
    "trace.overhead_pct",
];

/// Unit of every metric a run can report, by name.
pub fn unit(name: &str) -> &'static str {
    match name {
        "rss_peak_mib" => "MiB",
        n if n.ends_with("_per_s") => "1/s",
        n if n.ends_with("_s") => "s",
        n if n.ends_with("_us") => "us",
        n if n.ends_with("_pct") => "%",
        n if n.ends_with("_ns") || n.contains("ns_per_") => "ns",
        _ => "count",
    }
}

/// One run's results.
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// The workload's primary operation, `flow` or `probe`: the `op`
    /// end-to-end metrics report its `{op}s_per_s`, `{op}_p50_us` and
    /// `{op}_p99_us`.
    pub op: &'static str,
    /// Every measured metric by name (end-to-end, per-layer and the
    /// workload-specific figures the human-readable lines show).
    pub values: BTreeMap<&'static str, f64>,
    /// Configuration provenance and sample counts, in print order.
    pub info: Vec<(&'static str, String)>,
    /// Self-check verdicts: what the run achieved against what the
    /// workload declares.
    pub checks: Vec<String>,
    /// Operations attempted (flows, plus probes on `probe-poll`).
    pub attempted: u64,
    /// Attempted operations that were refused, dropped, left unmatched or
    /// answered wrongly.
    pub failed: u64,
    /// Correctness violations and failed self-checks; any entry fails the
    /// run.
    pub errors: Vec<String>,
}

impl Report {
    /// An empty report for `workload`.
    pub fn new(workload: &'static str, op: &'static str) -> Self {
        Self {
            workload,
            op,
            values: BTreeMap::new(),
            info: Vec::new(),
            checks: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a provenance or sample-count line.
    pub fn info(&mut self, key: &'static str, value: impl ToString) {
        self.info.push((key, value.to_string()));
    }

    /// Fails the run unless `cond`.
    pub fn require(&mut self, cond: bool, what: impl FnOnce() -> String) {
        if !cond {
            self.errors.push(what());
        }
    }

    /// Self-check: `value` must lie in `[lo, hi]`.
    pub fn expect_range(&mut self, name: &str, value: f64, lo: f64, hi: f64) {
        let ok = (lo..=hi).contains(&value);
        let line = format!("{name} = {value} (declared {lo}..={hi})");
        if ok {
            self.checks.push(format!("ok   {line}"));
        } else {
            self.errors.push(format!("self-check failed: {line}"));
        }
    }

    /// Whether every correctness check and self-check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Prints the human-readable lines, then [`Report::result_line`].
    pub fn print(&self, trace: bool) {
        println!("workload {}", self.workload);
        for (k, v) in &self.info {
            println!("  config   {k} = {v}");
        }
        for (k, v) in &self.values {
            let shown = if *v != 0.0 && v.abs() < 0.01 {
                format!("{v:.4e}")
            } else {
                format!("{v:.4}")
            };
            println!("  metric   {k:<28} {shown:>16} {}", unit(k));
        }
        println!(
            "  metric   {:<28} {:>16.4} %",
            "failed_pct",
            self.failed_pct()
        );
        for c in &self.checks {
            println!("  check    {c}");
        }
        for e in &self.errors {
            println!("  ERROR    {e}");
        }
        println!("{}", self.result_line(trace));
    }

    /// Failed operations as a share of attempted ones.
    pub fn failed_pct(&self) -> f64 {
        100.0 * self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The closing JSON object: verdict, operation counts, and the
    /// end-to-end metrics (`trace == false`) or the per-layer ones.
    pub fn result_line(&self, trace: bool) -> String {
        let names = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = names
            .iter()
            .map(|&n| {
                let key = match n {
                    "ops_per_s" => format!("{}s_per_s", self.op),
                    "op_p50_us" | "op_p75_us" => n.replacen("op", self.op, 1),
                    _ => n.to_string(),
                };
                let v = self.values.get(key.as_str()).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{}\"}}", unit(n))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Host and build facts every result records.
pub mod host {
    use std::fs;

    /// The L2 size of cpu0 in bytes and where it came from (`sysfs`, or
    /// `assumed` when the host does not expose its cache geometry).
    pub fn l2_bytes() -> (usize, &'static str) {
        const ASSUMED: usize = 2 << 20;
        let base = "/sys/devices/system/cpu/cpu0/cache";
        for i in 0..8 {
            let read = |f: &str| fs::read_to_string(format!("{base}/index{i}/{f}"));
            let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size"))
            else {
                continue;
            };
            if level.trim() != "2" || kind.trim() == "Instruction" {
                continue;
            }
            let size = size.trim();
            let (num, mult) = match size.strip_suffix('K') {
                Some(n) => (n, 1 << 10),
                None => match size.strip_suffix('M') {
                    Some(n) => (n, 1 << 20),
                    None => (size, 1),
                },
            };
            if let Ok(n) = num.parse::<usize>() {
                return (n * mult, "sysfs");
            }
        }
        (ASSUMED, "assumed")
    }

    /// Peak resident set of this process, MiB (`VmHWM`).
    pub fn rss_peak_mib() -> f64 {
        fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("VmHWM:"))
                    .and_then(|l| l.split_whitespace().nth(1))
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// Hardware threads available to the process.
    pub fn nproc() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// Records the configuration a run executes under: the scan kernel and
/// prefetch scheme (and whether either was forced through
/// `SPC_SCAN_KIND` / `SPC_PREFETCH_SCHEME`), the host's thread count and L2
/// size, the eviction buffer (0 where no compute phase runs), and the seed.
pub fn provenance(r: &mut Report, seed: u64, evict_bytes: usize) {
    use spc_core::{prefetch, simd};
    let forced = |f: bool| if f { "forced" } else { "default" };
    r.info(
        "scan_kind",
        format!(
            "{} ({})",
            simd::scan_kind().as_str(),
            forced(simd::scan_kind_forced().is_some())
        ),
    );
    r.info(
        "prefetch_scheme",
        format!(
            "{} ({})",
            prefetch::scheme().as_str(),
            forced(prefetch::scheme_forced().is_some())
        ),
    );
    r.info("nproc", host::nproc());
    let (l2, source) = host::l2_bytes();
    r.info("l2_bytes", format!("{l2} ({source})"));
    r.info("evict_bytes", evict_bytes);
    r.info("seed", seed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_holds_exactly_the_metric_set_of_its_mode() {
        let mut r = Report::new("probe-poll", "probe");
        r.set("probes_per_s", 1234.5);
        r.set("probe_p75_us", 78.25);
        r.set("seqsnap.iprobe_ns", 60000.0);
        r.attempted = 10;
        let e2e = r.result_line(false);
        assert!(e2e.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert!(e2e.contains("\"ops_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}"));
        assert!(e2e.contains("\"op_p75_us\": {\"value\": 78.25, \"unit\": \"us\"}"));
        assert_eq!(e2e.matches("\"value\"").count(), END_TO_END.len());
        let layers = r.result_line(true);
        assert!(layers.contains("\"seqsnap.iprobe_ns\": {\"value\": 60000, \"unit\": \"ns\"}"));
        assert_eq!(layers.matches("\"value\"").count(), PER_LAYER.len());
    }

    /// `(name, unit)` of every metric in one section of `BENCHMARK.json`,
    /// in file order.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
        let body = &text[start..];
        let body = &body[..body.find(']').expect("the section's list closes")];
        let values = |key: &str| -> Vec<String> {
            let key = format!("\"{key}\"");
            body.match_indices(&key)
                .map(|(i, _)| {
                    let rest = &body[i + key.len()..];
                    let open = rest.find('"').expect("a string value") + 1;
                    let len = rest[open..].find('"').expect("the string closes");
                    rest[open..open + len].to_string()
                })
                .collect()
        };
        let (names, units) = (values("name"), values("unit"));
        assert_eq!(names.len(), units.len(), "{section}: a name without a unit");
        names.into_iter().zip(units).collect()
    }

    #[test]
    fn metric_names_and_units_agree_with_benchmark_json() {
        for (section, names) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let reported: Vec<(String, String)> = names
                .iter()
                .map(|&n| (n.to_string(), unit(n).to_string()))
                .collect();
            assert_eq!(declared(section), reported, "{section}");
        }
    }

    #[test]
    fn a_failed_check_fails_the_run() {
        let mut r = Report::new("resident-deep", "flow");
        r.expect_range("depth", 3.0, 1.0, 2.0);
        assert!(!r.correct());
        assert!(r.result_line(false).starts_with("{\"correct\": false"));
    }
}
