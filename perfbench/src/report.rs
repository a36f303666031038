//! Metric names, units and the JSON lines a run prints.

/// End-to-end metrics (`--trace 0`), in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("tick_ms_p50", "ms"),
    ("object_ticks_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("msgs_per_tick", "msgs"),
    ("uplink_msgs_per_tick", "msgs"),
    ("bytes_per_tick", "B"),
    ("exactness", "ratio"),
    ("recall", "ratio"),
];

/// Per-layer metrics (`--trace 1`), in `BENCHMARK.json` order. Counts and
/// times are per-tick means over the traced window.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("mobility.step_ms", "ms"),
    ("mobility.moved", "count"),
    ("index.upsert_ms", "ms"),
    ("index.upserts", "count"),
    ("shard.track_ms", "ms"),
    ("shard.handoff_msgs", "msgs"),
    ("shard.legs", "msgs"),
    ("shard.recover_msgs", "msgs"),
    ("shard.load_p99", "msgs"),
    ("client.ms", "ms"),
    ("client.ops", "count"),
    ("client.uplinks", "msgs"),
    ("server.ms", "ms"),
    ("server.shard_ms_max", "ms"),
    ("server.concurrency", "ratio"),
    ("server.ops", "count"),
    ("route.ms", "ms"),
    ("downlink.frames", "count"),
    ("downlink.bytes_per_frame", "B"),
    ("downlink.header_share", "ratio"),
    ("downlink.full_fallbacks", "count"),
    ("downlink.geocast_pages", "msgs"),
    ("downlink.ack_bytes", "B"),
    ("fault.dropped", "msgs"),
    ("fault.dup", "msgs"),
    ("fault.delayed", "msgs"),
    ("fault.retransmits", "msgs"),
    ("oracle.ms", "ms"),
    ("oracle.checks", "count"),
    ("index.range_ns_per_hit", "ns"),
    ("downlink.stage_ns_per_copy", "ns"),
    ("downlink.flush_ns_per_frame", "ns"),
    ("wire.encode_ns_per_item", "ns"),
    ("wire.decode_ns_per_item", "ns"),
    ("trace.coverage", "ratio"),
    ("engine.untraced_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Named metric values, looked up against a name/unit table when printed.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Records `value` under `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The `metrics` object of the result line, with every metric of
    /// `table` in table order. A missing or non-finite value is an error:
    /// the benchmark never prints a metric it did not measure.
    pub fn to_json(&self, table: &[(&str, &str)]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let v = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is {v}"));
            }
            parts.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                number(v),
                quote(unit)
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

/// The last line of a run.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics_json}}}"
    )
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite f64 as a JSON number with every digit (`{:?}` is the shortest
/// exact round-trip form).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON array of numbers.
pub fn numbers(vs: &[f64]) -> String {
    let parts: Vec<String> = vs.iter().map(|&v| number(v)).collect();
    format!("[{}]", parts.join(", "))
}

/// A JSON array of strings.
pub fn strings(vs: &[String]) -> String {
    let parts: Vec<String> = vs.iter().map(|v| quote(v)).collect();
    format!("[{}]", parts.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_or_non_finite_metrics_are_refused() {
        let mut m = Metrics::default();
        m.set("a", 1.5);
        assert_eq!(
            m.to_json(&[("a", "s")]).unwrap(),
            "{\"a\": {\"value\": 1.5, \"unit\": \"s\"}}"
        );
        assert!(m.to_json(&[("a", "s"), ("b", "s")]).is_err());
        m.set("c", f64::NAN);
        assert!(m.to_json(&[("c", "s")]).is_err());
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn quoting_escapes() {
        assert_eq!(quote("a\"b\\"), "\"a\\\"b\\\\\"");
    }
}
