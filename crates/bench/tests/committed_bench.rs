//! Drift check for the committed `BENCH_matching.json`.
//!
//! The tracked gate output names walks and knobs by their JSON spelling.
//! When a scan kind or prefetch scheme is deleted from `spc-core`, rows
//! that still carry it describe code that no longer exists. This test reads
//! the committed file and fails on any such row, so the file is regenerated
//! in the same change that deletes the knob.
//!
//! `matching_gate` writes one record per line (`spc_minibench::report`), so
//! the string and integer columns are read line by line without a JSON
//! parser.

use spc_core::prefetch::PrefetchScheme;
use spc_core::simd::ScanKind;

const BENCH: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../BENCH_matching.json"
));

/// The raw text of `"key": value` in one record line, without quotes.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_matches('"'))
}

#[test]
fn committed_matching_rows_name_live_walks_and_schemes() {
    assert!(BENCH.contains("\"schema\": \"spc-bench/1\""));
    let records: Vec<&str> = BENCH
        .lines()
        .map(str::trim)
        .filter(|l| l.starts_with("{\"name\": "))
        .collect();
    assert!(!records.is_empty(), "no records in BENCH_matching.json");
    let mut errors = Vec::new();
    for line in &records {
        let name = field(line, "name").unwrap_or("?");
        let get = |key: &str| field(line, key).unwrap_or_else(|| panic!("{name}: no {key}"));
        let structure = get("structure");
        let kind = get("scan_kind");
        let scheme = get("prefetch_scheme");
        let dist = get("prefetch_dist");
        if PrefetchScheme::parse(scheme).is_none() {
            errors.push(format!("{name}: unknown prefetch_scheme {scheme:?}"));
        }
        // `fieldwise` and `packed` (the scalar portable kernel) are the
        // gate's own labels; every other value must be a live scan kind.
        if !matches!(kind, "fieldwise" | "packed") && ScanKind::parse(kind).is_none() {
            errors.push(format!("{name}: unknown scan_kind {kind:?}"));
        }
        if structure == "baseline" && !matches!(kind, "fieldwise" | "packed") {
            errors.push(format!("{name}: the baseline walk has no {kind:?} row"));
        }
        if structure.starts_with("lla") && (scheme != "off" || dist != "0") {
            errors.push(format!(
                "{name}: the LLA walk has no software prefetch, row reads {scheme}/{dist}"
            ));
        }
    }
    assert!(
        errors.is_empty(),
        "{} of {} committed rows drifted from the code:\n{}",
        errors.len(),
        records.len(),
        errors.join("\n")
    );
}
