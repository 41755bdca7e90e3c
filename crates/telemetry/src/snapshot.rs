//! Point-in-time metric snapshots and their wire/text encodings.
//!
//! A [`Snapshot`] is an ordered list of named entries (counter, gauge,
//! or histogram), optionally with labels, plus a dump of the flight
//! ring. Two encoders exist: Prometheus text exposition
//! ([`to_prometheus`](Snapshot::to_prometheus)) for the HTTP scrape
//! endpoint, and flat string pairs ([`to_pairs`](Snapshot::to_pairs))
//! for the `Message::Metrics` wire frame.

use crate::flight::FlightEvent;
use crate::histogram::HistogramSnapshot;

/// A metric value.
///
/// Histogram snapshots dominate the enum's size, but values only
/// exist in snapshot vectors of a few dozen entries built at scrape
/// time, so the per-entry footprint is irrelevant and boxing would
/// just cost an indirection at every render site.
#[derive(Clone, Debug)]
#[allow(clippy::large_enum_variant)]
pub enum Value {
    /// Monotonically increasing event count.
    Counter(u64),
    /// Instantaneous level (may go down between scrapes).
    Gauge(u64),
    /// Latency/size distribution.
    Histogram(HistogramSnapshot),
}

/// One named metric in a snapshot.
#[derive(Clone, Debug)]
pub struct Entry {
    /// Metric name, e.g. `pequod_engine_ops_total`. Sanitized to the
    /// Prometheus charset by the encoder, so callers may pass raw
    /// strings.
    pub name: String,
    /// Label key/value pairs, e.g. `[("op", "scan")]`.
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: Value,
}

/// A point-in-time view of a recorder.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Metric entries in emission order.
    pub entries: Vec<Entry>,
    /// Flight-recorder dump, oldest first (empty unless requested).
    pub flight: Vec<FlightEvent>,
}

impl Snapshot {
    /// Appends a counter entry.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
        self.entries.push(Entry {
            name: name.to_string(),
            labels: own_labels(labels),
            value: Value::Counter(v),
        });
    }

    /// Appends a gauge entry.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
        self.entries.push(Entry {
            name: name.to_string(),
            labels: own_labels(labels),
            value: Value::Gauge(v),
        });
    }

    /// Appends a histogram entry.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)], h: HistogramSnapshot) {
        self.entries.push(Entry {
            name: name.to_string(),
            labels: own_labels(labels),
            value: Value::Histogram(h),
        });
    }

    /// Prometheus text exposition format (version 0.0.4): `# TYPE`
    /// lines, sanitized names, escaped label values, and cumulative
    /// `_bucket{le=...}` series ending in `+Inf` for histograms.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut typed: Vec<String> = Vec::new();
        for e in &self.entries {
            let name = sanitize_name(&e.name);
            match &e.value {
                Value::Counter(v) => {
                    type_line(&mut out, &mut typed, &name, "counter");
                    push_sample(&mut out, &name, &e.labels, None, &v.to_string());
                }
                Value::Gauge(v) => {
                    type_line(&mut out, &mut typed, &name, "gauge");
                    push_sample(&mut out, &name, &e.labels, None, &v.to_string());
                }
                Value::Histogram(h) => {
                    type_line(&mut out, &mut typed, &name, "histogram");
                    let bucket = format!("{name}_bucket");
                    for (ub, cum) in h.cumulative() {
                        push_sample(
                            &mut out,
                            &bucket,
                            &e.labels,
                            Some(&ub.to_string()),
                            &cum.to_string(),
                        );
                    }
                    push_sample(
                        &mut out,
                        &bucket,
                        &e.labels,
                        Some("+Inf"),
                        &h.count.to_string(),
                    );
                    push_sample(
                        &mut out,
                        &format!("{name}_sum"),
                        &e.labels,
                        None,
                        &h.sum.to_string(),
                    );
                    push_sample(
                        &mut out,
                        &format!("{name}_count"),
                        &e.labels,
                        None,
                        &h.count.to_string(),
                    );
                }
            }
        }
        out
    }

    /// Flattens to `(key, value)` string pairs for the wire frame.
    /// Histograms expand to `count/sum/p50/p90/p99/max` sub-keys;
    /// labels are folded into the key as `name{k=v,...}`; flight
    /// events become `f|<seq>` keys with the rendered line as value.
    pub fn to_pairs(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for e in &self.entries {
            let key = pair_key(&e.name, &e.labels);
            match &e.value {
                Value::Counter(v) | Value::Gauge(v) => out.push((key, v.to_string())),
                Value::Histogram(h) => {
                    out.push((format!("{key}.count"), h.count.to_string()));
                    out.push((format!("{key}.sum"), h.sum.to_string()));
                    out.push((format!("{key}.p50"), h.p50().to_string()));
                    out.push((format!("{key}.p90"), h.p90().to_string()));
                    out.push((format!("{key}.p99"), h.p99().to_string()));
                    out.push((format!("{key}.max"), h.max.to_string()));
                }
            }
        }
        for ev in &self.flight {
            out.push((format!("f|{}", ev.seq), ev.render()));
        }
        out
    }
}

fn own_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

fn pair_key(name: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let body: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{name}{{{}}}", body.join(","))
}

/// Emits a `# TYPE` header once per metric family.
fn type_line(out: &mut String, typed: &mut Vec<String>, name: &str, kind: &str) {
    if typed.iter().any(|t| t == name) {
        return;
    }
    typed.push(name.to_string());
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// One sample line: `name{labels} value\n`, with `le` appended for
/// histogram buckets.
fn push_sample(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    le: Option<&str>,
    value: &str,
) {
    out.push_str(name);
    if !labels.is_empty() || le.is_some() {
        out.push('{');
        let mut first = true;
        for (k, v) in labels {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&sanitize_name(k));
            out.push_str("=\"");
            out.push_str(&escape_label_value(v));
            out.push('"');
        }
        if let Some(le) = le {
            if !first {
                out.push(',');
            }
            out.push_str("le=\"");
            out.push_str(le);
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// Maps a raw name onto the Prometheus charset `[a-zA-Z0-9_:]`,
/// replacing anything else with `_` and prefixing `_` if the first
/// character is a digit. Empty names become `_`.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;

    #[test]
    fn counters_and_gauges_render() {
        let mut s = Snapshot::default();
        s.counter("pequod_ops_total", &[("op", "scan")], 7);
        s.gauge("pequod_active_conns", &[], 3);
        let text = s.to_prometheus();
        assert!(text.contains("# TYPE pequod_ops_total counter"));
        assert!(text.contains("pequod_ops_total{op=\"scan\"} 7"));
        assert!(text.contains("pequod_active_conns 3"));
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let h = Histogram::new();
        h.observe(1);
        h.observe(5);
        let mut s = Snapshot::default();
        s.histogram("lat_us", &[], h.snapshot());
        let text = s.to_prometheus();
        assert!(text.contains("# TYPE lat_us histogram"));
        assert!(text.contains("lat_us_bucket{le=\"1\"} 1"));
        assert!(text.contains("lat_us_bucket{le=\"7\"} 2"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("lat_us_sum 6"));
        assert!(text.contains("lat_us_count 2"));
    }

    #[test]
    fn sanitize_and_escape() {
        assert_eq!(sanitize_name("a.b-c/d"), "a_b_c_d");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name(""), "_");
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn pairs_flatten_histograms_and_flight() {
        let h = Histogram::new();
        h.observe(4);
        let mut s = Snapshot::default();
        s.counter("ops", &[], 1);
        s.histogram("lat", &[("op", "put")], h.snapshot());
        s.flight.push(FlightEvent {
            seq: 9,
            at_micros: 1,
            kind: "evict",
            detail: "x".into(),
        });
        let pairs = s.to_pairs();
        assert!(pairs.contains(&("ops".to_string(), "1".to_string())));
        assert!(pairs.iter().any(|(k, _)| k == "lat{op=put}.p99"));
        assert!(pairs.iter().any(|(k, _)| k == "f|9"));
    }
}
