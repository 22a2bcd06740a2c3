//! Telemetry artifacts: `results/telemetry_<scale>.json`.
//!
//! `bench_forward --telemetry` captures one [`TelemetryReport`] per
//! workload run and composes them into a single artifact in the
//! `geo-perf-trajectory-v1` envelope with `"bench": "telemetry"` — the
//! same envelope the timing trajectory uses, so downstream tooling can
//! dispatch on `schema`/`bench` alone.
//! This module owns the multi-run composition, the strict re-parse, and
//! the validation CI runs against the emitted file.
//!
//! Like [`crate::trajectory`], parsing goes through [`crate::json`] and
//! inherits its strictness: non-finite numbers and duplicate object
//! keys are parse errors, not silent data.

use crate::json::{get, Parser, Value};
use crate::trajectory::SCHEMA;
use geo_core::telemetry::{LayerTelemetry, Phase, TelemetryReport};
use std::fs;
use std::io;
use std::path::Path;

/// A telemetry artifact: the shared envelope plus one run per workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// Ambient worker-thread count the runs executed under.
    pub threads: usize,
    /// Run scale (`smoke`, `quick`, `full`).
    pub scale: String,
    /// Captured runs, one per workload configuration.
    pub runs: Vec<TelemetryReport>,
}

impl Artifact {
    /// Composes an artifact from captured reports.
    #[must_use]
    pub fn new(scale: &str, threads: usize, runs: Vec<TelemetryReport>) -> Artifact {
        Artifact {
            threads,
            scale: scale.to_string(),
            runs,
        }
    }

    /// Serializes the artifact: the `geo-perf-trajectory-v1` envelope
    /// around one [`TelemetryReport::json_fragment`] per run.
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema\": \"{SCHEMA}\",");
        let _ = writeln!(s, "  \"bench\": \"telemetry\",");
        let _ = writeln!(s, "  \"threads\": {},", self.threads);
        let _ = writeln!(s, "  \"scale\": \"{}\",", self.scale);
        let _ = writeln!(s, "  \"runs\": [");
        for (i, run) in self.runs.iter().enumerate() {
            let sep = if i + 1 == self.runs.len() { "" } else { "," };
            let _ = writeln!(s, "    {}{sep}", run.json_fragment());
        }
        let _ = writeln!(s, "  ]");
        let _ = writeln!(s, "}}");
        s
    }

    /// Writes the artifact to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.to_json())
    }

    /// Parses an artifact, rejecting unknown schema/bench tags.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed construct.
    pub fn from_json(text: &str) -> Result<Artifact, String> {
        let value = Parser::new(text).parse_document()?;
        let top = value.as_object("top level")?;
        let schema = get(top, "schema")?.as_str("schema")?;
        if schema != SCHEMA {
            return Err(format!("schema {schema:?} is not {SCHEMA:?}"));
        }
        let bench = get(top, "bench")?.as_str("bench")?;
        if bench != "telemetry" {
            return Err(format!("bench {bench:?} is not \"telemetry\""));
        }
        let threads = get(top, "threads")?.as_usize("threads")?;
        let scale = get(top, "scale")?.as_str("scale")?.to_string();
        let runs = get(top, "runs")?
            .as_array("runs")?
            .iter()
            .map(|v| parse_run(v, threads))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Artifact {
            threads,
            scale,
            runs,
        })
    }

    /// Validates artifact invariants: `expected_sources` appear exactly
    /// once each, every run has at least one pass and one layer, and
    /// each run's serialized `total` equals the sum of its layer
    /// counters (the writer computes it; a mismatch means the file was
    /// edited or the writer regressed).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self, expected_sources: &[&str]) -> Result<(), String> {
        for &source in expected_sources {
            let matches = self.runs.iter().filter(|r| r.source == source).count();
            if matches != 1 {
                return Err(format!(
                    "expected exactly one run with source {source:?}, found {matches}"
                ));
            }
        }
        for run in &self.runs {
            if run.passes == 0 {
                return Err(format!("run {:?} records zero passes", run.source));
            }
            if run.layers.is_empty() {
                return Err(format!("run {:?} has no layers", run.source));
            }
        }
        Ok(())
    }
}

fn parse_layer(v: &Value) -> Result<LayerTelemetry, String> {
    let fields = v.as_object("layer")?;
    let mut phase_ns = [0u64; 4];
    for phase in Phase::ALL {
        let key = format!("{}_ms", phase.name());
        let ms = get(fields, &key)?.as_f64(&key)?;
        if ms < 0.0 {
            return Err(format!("{key}: negative time {ms}"));
        }
        phase_ns[phase.index()] = (ms * 1e6).round() as u64;
    }
    Ok(LayerTelemetry {
        macs: get(fields, "macs")?.as_u64("macs")?,
        compacted_lanes: get(fields, "compacted_lanes")?.as_u64("compacted_lanes")?,
        skipped_zero_lanes: get(fields, "skipped_zero_lanes")?.as_u64("skipped_zero_lanes")?,
        table_hits: get(fields, "table_hits")?.as_u64("table_hits")?,
        table_misses: get(fields, "table_misses")?.as_u64("table_misses")?,
        fault_events: get(fields, "fault_events")?.as_u64("fault_events")?,
        pingpong_bytes: get(fields, "pingpong_bytes")?.as_u64("pingpong_bytes")?,
        conversions_skipped: get(fields, "conversions_skipped")?.as_u64("conversions_skipped")?,
        phase_ns,
    })
}

fn parse_run(v: &Value, threads: usize) -> Result<TelemetryReport, String> {
    let fields = v.as_object("run")?;
    let source = get(fields, "source")?.as_str("source")?.to_string();
    let passes = get(fields, "passes")?.as_u64("passes")?;
    let layers = get(fields, "layers")?
        .as_array("layers")?
        .iter()
        .map(parse_layer)
        .collect::<Result<Vec<_>, String>>()?;
    let report = TelemetryReport {
        source,
        threads,
        passes,
        layers,
    };
    // The writer derives `total` from the layers; verify at parse time so
    // a hand-edited artifact cannot carry an inconsistent summary.
    let declared = parse_layer(get(fields, "total")?)?;
    let computed = report.total();
    if declared.counters() != computed.counters() {
        return Err(format!(
            "run {:?}: total {:?} does not match layer sum {:?}",
            report.source,
            declared.counters(),
            computed.counters()
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Artifact {
        let run = |source: &str, macs: u64| TelemetryReport {
            source: source.to_string(),
            threads: 1,
            passes: 2,
            layers: vec![
                LayerTelemetry {
                    macs,
                    compacted_lanes: 4,
                    skipped_zero_lanes: 1,
                    table_hits: 3,
                    table_misses: 5,
                    fault_events: 0,
                    pingpong_bytes: 128,
                    conversions_skipped: 24,
                    phase_ns: [1_000_000, 250_000, 2_000_000, 0],
                },
                LayerTelemetry {
                    macs: macs / 2,
                    compacted_lanes: 2,
                    skipped_zero_lanes: 3,
                    table_hits: 9,
                    table_misses: 1,
                    fault_events: 2,
                    pingpong_bytes: 64,
                    conversions_skipped: 0,
                    phase_ns: [0, 500_000, 0, 750_000],
                },
            ],
        };
        Artifact::new("smoke", 1, vec![run("lenet5/Apc", 100), run("cnn4/Or", 64)])
    }

    #[test]
    fn artifact_round_trips() {
        let artifact = sample();
        let parsed = Artifact::from_json(&artifact.to_json()).unwrap();
        assert_eq!(parsed, artifact);
    }

    #[test]
    fn validate_checks_source_coverage_and_passes() {
        let artifact = sample();
        artifact.validate(&["lenet5/Apc", "cnn4/Or"]).unwrap();
        let err = artifact.validate(&["lenet5/Fxp"]).unwrap_err();
        assert!(err.contains("lenet5/Fxp"), "{err}");
        let mut empty = sample();
        empty.runs[0].passes = 0;
        assert!(empty.validate(&[]).is_err());
    }

    #[test]
    fn inconsistent_total_is_rejected() {
        // Corrupt the serialized total's MAC count; the layer sum is
        // 100 + 50 = 150 for the first run.
        let json = sample()
            .to_json()
            .replacen("\"macs\": 150", "\"macs\": 151", 1);
        assert!(json.contains("151"), "test setup: total not found");
        let err = Artifact::from_json(&json).unwrap_err();
        assert!(err.contains("does not match layer sum"), "{err}");
    }

    #[test]
    fn wrong_bench_tag_is_rejected() {
        let json = sample().to_json().replace("\"telemetry\"", "\"timings\"");
        let err = Artifact::from_json(&json).unwrap_err();
        assert!(err.contains("bench"), "{err}");
    }

    #[test]
    fn fractional_counter_is_rejected() {
        let json = sample()
            .to_json()
            .replacen("\"macs\": 100", "\"macs\": 100.5", 1);
        let err = Artifact::from_json(&json).unwrap_err();
        assert!(err.contains("not a non-negative integer"), "{err}");
    }
}
