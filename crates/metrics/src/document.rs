//! The `BENCH_<name>.json` document schema and the regression gate.
//!
//! A [`BenchDoc`] is what the benchmark binaries write to `results/` and
//! what `scripts/bench_gate.sh` diffs against the committed baseline:
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "name": "gpu",
//!   "context": { "scale": "smoke", "seed": "8" },
//!   "metrics": [
//!     { "name": "gpu.mech_s", "labels": { "version": "v2" },
//!       "kind": "gauge", "value": 0.0123, "tol": 0.1 },
//!     ...
//!   ]
//! }
//! ```
//!
//! A document holds only rows the gate compares: a series the publishing
//! policy keeps out (a host wall clock, a schedule-dependent count) is
//! not written at all. A row's optional `tol` overrides the gate's
//! default relative tolerance (exact discrete quantities like op-run
//! counts set `0`). [`compare`] then needs no out-of-band
//! configuration: the baseline file *is* the contract — every row it
//! holds is compared, and a fresh document must carry exactly its keys.

use crate::json::JsonValue;
use crate::registry::{MetricData, MetricKind, MetricsRegistry};

/// Version tag every document carries; bump on breaking schema changes.
pub const SCHEMA_VERSION: u64 = 1;

/// Gating policy attached to one metric sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatePolicy {
    /// Relative tolerance override; `None` uses the gate's default.
    pub tol: Option<f64>,
}

impl GatePolicy {
    /// Gated at the default tolerance.
    pub fn gated() -> Self {
        Self { tol: None }
    }

    /// Gated with an explicit relative tolerance (`0.0` = exact match).
    pub fn with_tol(tol: f64) -> Self {
        Self { tol: Some(tol) }
    }
}

/// One flattened scalar sample of a document.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Metric name (histograms flatten to `name.count` / `.sum` / …).
    pub name: String,
    /// Sorted label set.
    pub labels: Vec<(String, String)>,
    /// Kind of the originating series.
    pub kind: MetricKind,
    /// The scalar value.
    pub value: f64,
    /// Gating policy.
    pub policy: GatePolicy,
}

impl MetricSample {
    /// Canonical `name{k=v,…}` identity used in gate reports.
    pub fn key(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let labels: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!("{}{{{}}}", self.name, labels.join(","))
    }
}

/// A complete benchmark document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    /// Document name (`BENCH_<name>.json`).
    pub name: String,
    /// Free-form run context (scale, seed, …) — never compared.
    pub context: Vec<(String, String)>,
    /// Flattened samples, sorted by `(name, labels)`.
    pub metrics: Vec<MetricSample>,
}

impl BenchDoc {
    /// Empty document.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            context: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Append a context entry (run parameters, not compared).
    pub fn push_context(&mut self, key: impl Into<String>, value: impl ToString) {
        self.context.push((key.into(), value.to_string()));
    }

    /// Flatten a registry into the document. `policy` maps a metric name
    /// to its gating policy, or to `None` for a series the document does
    /// not hold (called once per series; histogram component samples
    /// inherit the series' policy, with `.count` forced exact and
    /// `.sum`/`.min`/`.max` inheriting).
    pub fn publish(&mut self, reg: &MetricsRegistry, policy: impl Fn(&str) -> Option<GatePolicy>) {
        for (name, labels, data) in reg.iter() {
            let Some(p) = policy(name) else {
                continue;
            };
            let mut push = |suffix: &str, kind: MetricKind, value: f64, policy: GatePolicy| {
                self.metrics.push(MetricSample {
                    name: format!("{name}{suffix}"),
                    labels: labels.to_vec(),
                    kind,
                    value,
                    policy,
                });
            };
            match data {
                MetricData::Counter(v) => push("", MetricKind::Counter, *v, p),
                MetricData::Gauge(v) => push("", MetricKind::Gauge, *v, p),
                MetricData::Histogram(h) => {
                    let exact = GatePolicy::with_tol(0.0);
                    push(".count", MetricKind::Histogram, h.count as f64, exact);
                    push(".sum", MetricKind::Histogram, h.sum, p);
                    push(".min", MetricKind::Histogram, h.min, p);
                    push(".max", MetricKind::Histogram, h.max, p);
                }
            }
        }
        self.metrics.sort_by_key(|a| a.key());
    }

    /// Serialize (stable field order; byte-identical for equal content).
    pub fn to_json(&self) -> JsonValue {
        let mut doc = JsonValue::obj();
        doc.push("schema_version", JsonValue::Num(SCHEMA_VERSION as f64));
        doc.push("name", JsonValue::Str(self.name.clone()));
        let mut ctx = JsonValue::obj();
        for (k, v) in &self.context {
            ctx.push(k.clone(), JsonValue::Str(v.clone()));
        }
        doc.push("context", ctx);
        let mut arr = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            let mut entry = JsonValue::obj();
            entry.push("name", JsonValue::Str(m.name.clone()));
            let mut lbl = JsonValue::obj();
            for (k, v) in &m.labels {
                lbl.push(k.clone(), JsonValue::Str(v.clone()));
            }
            entry.push("labels", lbl);
            entry.push("kind", JsonValue::Str(m.kind.as_str().into()));
            entry.push("value", JsonValue::Num(m.value));
            if let Some(tol) = m.policy.tol {
                entry.push("tol", JsonValue::Num(tol));
            }
            arr.push(entry);
        }
        doc.push("metrics", JsonValue::Arr(arr));
        doc
    }

    /// Parse a document, validating the schema version.
    pub fn from_json(v: &JsonValue) -> Result<Self, String> {
        let version = v
            .get("schema_version")
            .and_then(JsonValue::as_f64)
            .ok_or("missing schema_version")?;
        if version != SCHEMA_VERSION as f64 {
            return Err(format!(
                "unsupported schema_version {version} (expected {SCHEMA_VERSION})"
            ));
        }
        let name = v
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("missing name")?
            .to_string();
        let mut context = Vec::new();
        if let Some(JsonValue::Obj(pairs)) = v.get("context") {
            for (k, val) in pairs {
                context.push((
                    k.clone(),
                    val.as_str().ok_or("non-string context value")?.to_string(),
                ));
            }
        }
        let mut metrics = Vec::new();
        for entry in v
            .get("metrics")
            .and_then(JsonValue::as_arr)
            .ok_or("missing metrics array")?
        {
            let name = entry
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("metric missing name")?
                .to_string();
            let mut labels = Vec::new();
            if let Some(JsonValue::Obj(pairs)) = entry.get("labels") {
                for (k, val) in pairs {
                    labels.push((
                        k.clone(),
                        val.as_str().ok_or("non-string label value")?.to_string(),
                    ));
                }
            }
            let kind = match entry.get("kind").and_then(JsonValue::as_str) {
                Some("counter") => MetricKind::Counter,
                Some("gauge") => MetricKind::Gauge,
                Some("histogram") => MetricKind::Histogram,
                other => return Err(format!("bad metric kind {other:?}")),
            };
            let value = entry
                .get("value")
                .and_then(JsonValue::as_f64)
                .ok_or("metric missing value")?;
            let tol = entry.get("tol").and_then(JsonValue::as_f64);
            metrics.push(MetricSample {
                name,
                labels,
                kind,
                value,
                policy: GatePolicy { tol },
            });
        }
        Ok(Self {
            name,
            context,
            metrics,
        })
    }
}

/// One out-of-tolerance metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// `name{labels}` identity.
    pub key: String,
    /// Baseline value.
    pub baseline: f64,
    /// Fresh value.
    pub fresh: f64,
    /// Relative deviation `|fresh − baseline| / max(|baseline|, ε)`.
    pub rel: f64,
    /// Tolerance that was applied.
    pub tol: f64,
}

/// Outcome of comparing a fresh document against a baseline.
#[derive(Debug, Clone, Default)]
pub struct CompareReport {
    /// Metrics compared.
    pub checked: usize,
    /// Metrics outside tolerance.
    pub regressions: Vec<Regression>,
    /// Baseline metrics absent from the fresh run (schema drift — a
    /// failure).
    pub missing: Vec<String>,
    /// Fresh metrics absent from the baseline (a failure too: the gate
    /// would never hold them; re-baseline to adopt them).
    pub unbaselined: Vec<String>,
}

impl CompareReport {
    /// `true` when the gate passes.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty() && self.unbaselined.is_empty()
    }

    /// Human-readable gate report.
    pub fn render(&self, doc_name: &str) -> String {
        let mut out = format!("{doc_name}: {} gated metrics checked\n", self.checked);
        for r in &self.regressions {
            out.push_str(&format!(
                "  FAIL {}: baseline {} -> fresh {} (rel {:+.2}%, tol {:.2}%)\n",
                r.key,
                r.baseline,
                r.fresh,
                (r.fresh - r.baseline) / r.baseline.abs().max(f64::MIN_POSITIVE) * 100.0,
                r.tol * 100.0
            ));
        }
        for key in &self.missing {
            out.push_str(&format!(
                "  FAIL {key}: present in baseline, missing from fresh run\n"
            ));
        }
        for key in &self.unbaselined {
            out.push_str(&format!(
                "  FAIL {key}: in fresh run, not in baseline (re-baseline to adopt)\n"
            ));
        }
        out.push_str(if self.passed() {
            "  PASS\n"
        } else {
            "  GATE FAILED\n"
        });
        out
    }
}

/// Absolute floor under the relative-deviation denominator, so baselines
/// at exactly zero still accept zero (and reject anything materially
/// non-zero).
const ABS_EPS: f64 = 1e-12;

/// Compare `fresh` against `baseline`: both must hold the same keys, and
/// every value must lie within the baseline row's `tol` (`default_tol`
/// when it carries none). The check is symmetric — a large *improvement* also
/// fails, which is deliberate: it means the committed baseline no longer
/// describes the code and must be consciously re-recorded.
pub fn compare(baseline: &BenchDoc, fresh: &BenchDoc, default_tol: f64) -> CompareReport {
    let mut report = CompareReport::default();
    let fresh_by_key: std::collections::BTreeMap<String, &MetricSample> =
        fresh.metrics.iter().map(|m| (m.key(), m)).collect();
    let mut seen: std::collections::BTreeSet<String> = Default::default();
    for base in &baseline.metrics {
        let key = base.key();
        seen.insert(key.clone());
        let Some(f) = fresh_by_key.get(&key) else {
            report.missing.push(key);
            continue;
        };
        report.checked += 1;
        let tol = base.policy.tol.unwrap_or(default_tol);
        let denom = base.value.abs().max(ABS_EPS);
        let rel = (f.value - base.value).abs() / denom;
        if rel > tol {
            report.regressions.push(Regression {
                key,
                baseline: base.value,
                fresh: f.value,
                rel,
                tol,
            });
        }
    }
    for m in &fresh.metrics {
        let key = m.key();
        if !seen.contains(&key) {
            report.unbaselined.push(key);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc_with(values: &[(&str, f64, GatePolicy)]) -> BenchDoc {
        let mut d = BenchDoc::new("test");
        d.push_context("scale", "smoke");
        for (name, value, policy) in values {
            d.metrics.push(MetricSample {
                name: name.to_string(),
                labels: vec![("env".into(), "csr".into())],
                kind: MetricKind::Gauge,
                value: *value,
                policy: *policy,
            });
        }
        d
    }

    #[test]
    fn identical_documents_pass() {
        let d = doc_with(&[
            ("a", 1.0, GatePolicy::gated()),
            ("b", 2.0, GatePolicy::gated()),
        ]);
        let r = compare(&d, &d, 0.1);
        assert!(r.passed());
        assert_eq!(r.checked, 2);
        assert!(r.regressions.is_empty());
    }

    #[test]
    fn deviation_beyond_tolerance_fails() {
        let base = doc_with(&[("t", 1.0, GatePolicy::gated())]);
        let fresh = doc_with(&[("t", 1.25, GatePolicy::gated())]);
        let r = compare(&base, &fresh, 0.1);
        assert!(!r.passed());
        assert_eq!(r.regressions.len(), 1);
        assert_eq!(r.regressions[0].key, "t{env=csr}");
        // Within tolerance passes.
        let near = doc_with(&[("t", 1.05, GatePolicy::gated())]);
        assert!(compare(&base, &near, 0.1).passed());
    }

    #[test]
    fn improvements_also_trip_the_gate() {
        let base = doc_with(&[("t", 1.0, GatePolicy::gated())]);
        let fresh = doc_with(&[("t", 0.5, GatePolicy::gated())]);
        assert!(!compare(&base, &fresh, 0.1).passed());
    }

    #[test]
    fn per_metric_tolerance_overrides_default() {
        let base = doc_with(&[("exact", 10.0, GatePolicy::with_tol(0.0))]);
        let fresh = doc_with(&[("exact", 10.0001, GatePolicy::gated())]);
        assert!(!compare(&base, &fresh, 0.5).passed());
        let same = doc_with(&[("exact", 10.0, GatePolicy::gated())]);
        assert!(compare(&base, &same, 0.5).passed());
    }

    #[test]
    fn a_missing_or_an_extra_gated_key_fails() {
        let a = ("a", 1.0, GatePolicy::gated());
        let b = ("b", 1.0, GatePolicy::gated());
        let base = doc_with(&[a]);
        let r = compare(&base, &doc_with(&[]), 0.1);
        assert!(!r.passed());
        assert_eq!(r.missing, vec!["a{env=csr}"]);
        let r = compare(&base, &doc_with(&[a, b]), 0.1);
        assert!(!r.passed());
        assert_eq!(r.checked, 1);
        assert_eq!(r.unbaselined, vec!["b{env=csr}"]);
        assert!(r.render("test").contains("FAIL b{env=csr}"));
    }

    #[test]
    fn zero_baseline_accepts_zero_rejects_nonzero() {
        let base = doc_with(&[("z", 0.0, GatePolicy::gated())]);
        assert!(compare(&base, &doc_with(&[("z", 0.0, GatePolicy::gated())]), 0.1).passed());
        assert!(!compare(&base, &doc_with(&[("z", 0.01, GatePolicy::gated())]), 0.1).passed());
    }

    #[test]
    fn document_json_roundtrip() {
        let mut reg = MetricsRegistry::new();
        reg.inc_counter("runs", &[("op", "behaviors")], 5.0);
        reg.set_gauge("modeled_s", &[("env", "csr")], 0.125);
        reg.observe("step_s", &[("op", "behaviors")], 0.5);
        reg.observe("step_s", &[("op", "behaviors")], 1.5);
        reg.set_gauge("wall_s", &[], 0.25);
        let mut doc = BenchDoc::new("roundtrip");
        doc.push_context("seed", 8);
        doc.publish(&reg, |name| match name {
            "wall_s" => None,
            "runs" => Some(GatePolicy::with_tol(0.0)),
            _ => Some(GatePolicy::gated()),
        });
        // A series the policy keeps out is not written.
        assert!(doc.metrics.iter().all(|m| m.name != "wall_s"));
        let text = doc.to_json().to_pretty();
        let parsed = BenchDoc::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, doc);
        // Parsed-vs-original comparison is clean.
        assert!(compare(&doc, &parsed, 0.0).passed());
        // And serialization is byte-stable.
        assert_eq!(parsed.to_json().to_pretty(), text);
    }

    #[test]
    fn histogram_flattening_gates_count_exactly() {
        let mut reg = MetricsRegistry::new();
        reg.observe("h", &[], 2.0);
        let mut doc = BenchDoc::new("h");
        doc.publish(&reg, |_| Some(GatePolicy::gated()));
        let names: Vec<&str> = doc.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["h.count", "h.max", "h.min", "h.sum"]);
        let count = doc.metrics.iter().find(|m| m.name == "h.count").unwrap();
        assert_eq!(count.policy.tol, Some(0.0));
    }

    #[test]
    fn schema_version_is_enforced() {
        let mut v = JsonValue::obj();
        v.push("schema_version", JsonValue::Num(999.0));
        v.push("name", JsonValue::Str("x".into()));
        v.push("metrics", JsonValue::Arr(vec![]));
        assert!(BenchDoc::from_json(&v)
            .unwrap_err()
            .contains("schema_version"));
    }
}
