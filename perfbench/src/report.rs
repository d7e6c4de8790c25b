//! The metric catalogue and the run report: a human-readable block
//! followed by one JSON line, the run's machine-readable result.

use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// End-to-end metrics: printed by every untraced run, on every workload.
pub const END_TO_END: &[(&str, &str, Better)] = &[
    ("setup_s", "s", Better::Lower),
    ("time_to_layout_s", "s", Better::Lower),
    ("updates_per_s", "1/s", Better::Higher),
    ("stress", "1", Better::Lower),
    ("peak_rss_mb", "MiB", Better::Lower),
    ("job_p50_ms", "ms", Better::Lower),
    ("job_p90_ms", "ms", Better::Lower),
    ("jobs_per_s", "1/s", Better::Higher),
];

/// Per-layer metrics: printed by every traced run, on every workload.
/// A layer that is not on a workload's path reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.parse_s", "s"),
    ("graph.parse_mb_per_s", "MB/s"),
    ("graph.lean_build_s", "s"),
    ("graph.lean_bytes", "B"),
    ("sampler.terms_per_s", "1/s"),
    ("sampler.accept_ratio", "1"),
    ("sampler.bytes_per_term", "B"),
    ("coords.terms_per_s", "1/s"),
    ("coords.bytes_per_term", "B"),
    ("cpu.layout_s", "s"),
    ("cpu.terms_applied", "count"),
    ("cpu.steps_attempted", "count"),
    ("cpu.sync_overhead_s", "s"),
    ("cpu.scaling_eff", "1"),
    ("metrics.stress_s", "s"),
    ("io.encode_lay_s", "s"),
    ("io.encode_tsv_s", "s"),
    ("io.lay_bytes", "B"),
    ("io.tsv_bytes", "B"),
    ("service.queue_wait_ms", "ms"),
    ("service.graph_lookup_ms", "ms"),
    ("service.cache_probe_ms", "ms"),
    ("service.layout_ms", "ms"),
    ("service.spill_ms", "ms"),
    ("service.cache_hit_ratio", "1"),
    ("service.hit_ms", "ms"),
    ("service.parses_per_upload", "1"),
    ("http.upload_ms", "ms"),
    ("http.submit_ms", "ms"),
    ("http.events_ms", "ms"),
    ("http.result_ms", "ms"),
    ("http.connects_per_job", "1"),
    ("cluster.overhead_ms", "ms"),
    ("cluster.result_retries", "1/job"),
    ("cluster.graph_pushes_per_upload", "1"),
    ("cluster.forwards_per_job", "1"),
    ("trace.overhead_frac", "1"),
];

/// Unit of a catalogued metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|&(n, u, _)| (n, u))
        .chain(PER_LAYER.iter().copied())
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Samples behind the value (1 for a single measurement or a count).
    pub samples: usize,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Operations attempted (layouts computed, jobs submitted).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub layers: Vec<Metric>,
    /// Free-form facts printed beside the metrics (cache context, sizes).
    pub context: Vec<String>,
}

impl Report {
    /// An empty report for `workload`.
    pub fn new(workload: &str) -> Self {
        Self {
            workload: workload.to_string(),
            ..Self::default()
        }
    }

    /// Count one attempted operation and record its failure, if any.
    pub fn operation(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.failures.push(why);
        }
    }

    /// Record an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, samples: usize) {
        self.end_to_end.push(Metric {
            name,
            value,
            samples,
        });
    }

    /// Record a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, samples: usize) {
        self.layers.push(Metric {
            name,
            value,
            samples,
        });
    }

    /// Report 0 for every metric of `layers` not on this workload's path.
    pub fn layers_not_on_path(&mut self, layers: &[&str]) {
        for &(name, _) in PER_LAYER {
            if layers.iter().any(|l| name.split('.').next() == Some(l)) {
                self.layer(name, 0.0, 0);
            }
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn metrics(&self, traced: bool) -> (&[Metric], Vec<&'static str>) {
        if traced {
            (&self.layers, PER_LAYER.iter().map(|m| m.0).collect())
        } else {
            (&self.end_to_end, END_TO_END.iter().map(|m| m.0).collect())
        }
    }

    /// Catalogue metrics this report lacks (empty for a complete run).
    pub fn missing(&self, traced: bool) -> Vec<&'static str> {
        let (have, want) = self.metrics(traced);
        want.into_iter()
            .filter(|w| !have.iter().any(|m| m.name == *w))
            .collect()
    }

    /// The human-readable block: every metric with its unit and sample
    /// count, the context lines and the failures.
    pub fn human(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "workload {}", self.workload);
        for line in &self.context {
            let _ = writeln!(out, "  context  {line}");
        }
        for (kind, list) in [("e2e", &self.end_to_end), ("layer", &self.layers)] {
            for m in list.iter() {
                let value = if m.value != 0.0 && m.value.abs() < 1e-3 {
                    format!("{:.6e}", m.value)
                } else {
                    format!("{:.6}", m.value)
                };
                let _ = writeln!(
                    out,
                    "  {kind:<5}  {:<32} {value:>16} {:<6} n={}",
                    m.name,
                    unit_of(m.name),
                    m.samples
                );
            }
        }
        let _ = writeln!(
            out,
            "  checks   {} attempted, {} failed (fail_frac {:.4})",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for f in &self.failures {
            let _ = writeln!(out, "  FAILED   {f}");
        }
        out
    }

    /// The result line: end-to-end metrics when untraced, per-layer
    /// metrics when traced. A value that is not finite is written as
    /// `null` (and only a failed run can produce one).
    pub fn json(&self, traced: bool) -> String {
        let (have, want) = self.metrics(traced);
        let fields: Vec<String> = want
            .iter()
            .filter_map(|w| have.iter().find(|m| m.name == *w))
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".into()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name,
                    unit_of(m.name)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        for (i, n) in names.iter().enumerate() {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(!names[..i].contains(n), "{n} twice");
        }
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut r = Report::new("w");
        r.operation(Ok(()));
        assert!(r.correct());
        r.operation(Err("bad".into()));
        assert!(!r.correct());
        assert!(r
            .json(false)
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
