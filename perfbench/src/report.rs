//! The metric catalog and the result line.
//!
//! Every metric the benchmark can print is declared here with its unit;
//! `BENCHMARK.json` at the repository root lists the same names (a test
//! holds the two in step).

use std::collections::BTreeMap;

/// A metric declaration: name and unit. Which direction is better is
/// declared in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Metric name (`[A-Za-z0-9_.-]`, at most 64 characters).
    pub name: &'static str,
    /// Unit (`[A-Za-z0-9_/%.-]`, at most 16 characters).
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit }
}

/// Metrics of an untraced run (`--trace 0`).
pub const END_TO_END: &[Spec] = &[
    m("job_s_p50", "s"),
    m("job_s_tail", "s"),
    m("txn_per_s", "txn/s"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
    m("ok_ratio", "ratio"),
];

/// Span names whose self time is reported as `self.<name>_s`. Together
/// with `other` they partition the traced op's wall time.
pub const SELF_SPANS: &[&str] = &[
    "bench.op",
    "api.open",
    "session.ingest",
    "store.chunk",
    "view.build",
    "core.mine",
    "mine.run",
    "mine.cell",
    "mine.gen",
    "mine.count",
    "mine.seed",
    "exec.shard",
    "sink.emit",
    "other",
];

/// Metrics of a traced run (`--trace 1`).
pub const PER_LAYER: &[Spec] = &[
    m("trace.job_s_p50", "s"),
    m("trace.self_coverage", "ratio"),
    m("obs.overhead_ratio", "ratio"),
    m("obs.drain_s", "s"),
    m("obs.events_per_op", "count"),
    m("self.bench.op_s", "s"),
    m("self.api.open_s", "s"),
    m("self.session.ingest_s", "s"),
    m("self.store.chunk_s", "s"),
    m("self.view.build_s", "s"),
    m("self.core.mine_s", "s"),
    m("self.mine.run_s", "s"),
    m("self.mine.cell_s", "s"),
    m("self.mine.gen_s", "s"),
    m("self.mine.count_s", "s"),
    m("self.mine.seed_s", "s"),
    m("self.exec.shard_s", "s"),
    m("self.sink.emit_s", "s"),
    m("self.other_s", "s"),
    m("api.open_s", "s"),
    m("store.read_s", "s"),
    m("data.view_build_s", "s"),
    m("store.bytes_per_txn", "B/txn"),
    m("core.mine_s", "s"),
    m("core.gen_s", "s"),
    m("core.count_s", "s"),
    m("core.seed_s", "s"),
    m("core.extract_s", "s"),
    m("core.candidates_generated", "count"),
    m("core.frequent_found", "count"),
    m("core.useful_ratio", "ratio"),
    m("core.peak_resident_itemsets", "count"),
    m("core.cells", "count"),
    m("count.candidates_counted", "count"),
    m("count.intersections", "count"),
    m("count.prefix_reuse_ratio", "ratio"),
    m("exec.shards", "count"),
    m("exec.shard_busy_s", "s"),
    m("exec.shard_skew", "ratio"),
    m("cellcache.lookups", "count"),
    m("cellcache.hit_ratio", "ratio"),
    m("cellcache.bytes_resident", "B"),
    m("cellcache.evicted_cells", "count"),
    m("seed.lookups", "count"),
    m("seed.hit_ratio", "ratio"),
    m("seed.cache_len", "count"),
    m("sink.emit_s", "s"),
    m("sink.bytes", "B"),
];

/// The catalog for a run mode.
pub fn catalog(traced: bool) -> &'static [Spec] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Is `name` a legal metric name: 1–64 of `[A-Za-z0-9_.-]`, starting with
/// a letter or digit?
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// Is `unit` a legal unit: 1–16 of `[A-Za-z0-9_/%.-]`?
pub fn valid_unit(unit: &str) -> bool {
    let b = unit.as_bytes();
    !b.is_empty()
        && b.len() <= 16
        && b.iter()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// Render the result line: `correct`, `attempted`, `failed` and every
/// metric of `specs`, in catalog order. Errors when a metric is missing
/// or not finite — a result line is never printed with a hole in it.
pub fn render(
    correct: bool,
    attempted: u64,
    failed: u64,
    specs: &[Spec],
    values: &BTreeMap<String, f64>,
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, spec) in specs.iter().enumerate() {
        if !valid_name(spec.name) || !valid_unit(spec.unit) {
            return Err(format!(
                "illegal metric name or unit: {} {}",
                spec.name, spec.unit
            ));
        }
        let v = *values
            .get(spec.name)
            .ok_or_else(|| format!("metric {} was not measured", spec.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite ({v})", spec.name));
        }
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            spec.name, spec.unit
        ));
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flipper_obs::Json;

    #[test]
    fn name_grammar() {
        for ok in ["job_s_p50", "self.mine.gen_s", "a", "9-x.y_z"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/x",
            "q\"",
            "é",
            &long,
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
        for ok in ["s", "txn/s", "B/txn", "%", "count"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "seconds-per-op-xy", "a\"b"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn catalog_names_and_units_are_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for spec in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(spec.name), "{}", spec.name);
            assert!(valid_unit(spec.unit), "{}", spec.unit);
            assert!(seen.insert(spec.name), "duplicate {}", spec.name);
        }
        for span in SELF_SPANS {
            let name = format!("self.{span}_s");
            assert!(PER_LAYER.iter().any(|s| s.name == name), "{name}");
        }
    }

    fn field<'a>(obj: &'a Json, key: &str) -> &'a Json {
        match obj {
            Json::Obj(map) => map.get(key).unwrap_or_else(|| panic!("missing {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn text(j: &Json) -> &str {
        match j {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    /// BENCHMARK.json declares exactly the catalog, in order, with the
    /// same units.
    #[test]
    fn benchmark_json_matches_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = flipper_obs::parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Json::Arr(items) = field(&doc, key) else {
                panic!("{key} is not an array")
            };
            assert_eq!(items.len(), specs.len(), "{key}");
            for (item, spec) in items.iter().zip(specs) {
                assert_eq!(text(field(item, "name")), spec.name);
                assert_eq!(text(field(item, "unit")), spec.unit);
                assert!(["higher", "lower"].contains(&text(field(item, "better"))));
            }
        }
    }

    #[test]
    fn render_is_json_with_every_metric() {
        let values: BTreeMap<String, f64> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name.to_string(), 0.125 * (i + 1) as f64))
            .collect();
        let line = render(true, 12, 0, END_TO_END, &values).unwrap();
        let doc = flipper_obs::parse_json(&line).unwrap();
        assert_eq!(field(&doc, "attempted"), &Json::Num(12.0));
        let metrics = field(&doc, "metrics");
        for spec in END_TO_END {
            assert_eq!(text(field(field(metrics, spec.name), "unit")), spec.unit);
        }
        let mut missing = values.clone();
        missing.remove("setup_s");
        assert!(render(true, 1, 0, END_TO_END, &missing).is_err());
        let mut nan = values;
        nan.insert("setup_s".into(), f64::NAN);
        assert!(render(true, 1, 0, END_TO_END, &nan).is_err());
    }
}
