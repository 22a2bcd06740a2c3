//! The three workloads and the metrics every one of them prints.

use crate::common::{Ctx, Outcome};

/// A benchmark workload, selected by `--workload`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop single-image serving of the calibrated VGG-16 thumbnail.
    Serve,
    /// SC-in-the-loop training of CNN-4, then SC evaluation.
    Train,
    /// Compile, artifact round trip, prepare and batch-8 inference of the
    /// paper-scale VGG-16.
    PaperScale,
}

/// `(name, unit)` of a metric.
pub type Metric = (&'static str, &'static str);

/// End-to-end metrics every untraced run prints. Each workload fills them
/// from its own measured phase; `geobench/README.md` defines them per
/// workload.
pub const END_TO_END: [Metric; 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("images_per_s", "img/s"),
    ("p50_ms", "ms"),
];

/// Per-layer metrics every traced run prints, each measured on the
/// workload's own model.
pub const PER_LAYER: [Metric; 17] = [
    ("sc.table_us", "us"),
    ("sc.progressive_table_us", "us"),
    ("tables.build_ms", "ms"),
    ("engine.prepare_cold_ms", "ms"),
    ("engine.prepare_warm_ms", "ms"),
    ("engine.forward_ms.b1", "ms"),
    ("engine.forward_ms.b8", "ms"),
    ("rayon.b1_overhead_ms", "ms"),
    ("rayon.threads", "count"),
    ("arch.compile_ms", "ms"),
    ("arch.artifact_bytes", "bytes"),
    ("exec.load_ms", "ms"),
    ("exec.prepare_ms", "ms"),
    ("arch.sim_cycles", "cycles"),
    ("p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.closure_gap_pct", "%"),
];

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Serve, Workload::Train, Workload::PaperScale];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Serve => "serve",
            Workload::Train => "train",
            Workload::PaperScale => "paper-scale",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs the workload.
    ///
    /// # Errors
    ///
    /// Reports a library call that failed; output mismatches are reported
    /// through [`Outcome::mismatches`] instead.
    pub fn run(self, ctx: &Ctx) -> Result<Outcome, String> {
        match self {
            Workload::Serve => crate::serve::run(ctx),
            Workload::Train => crate::train::run(ctx),
            Workload::PaperScale => crate::paper::run(ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_metric_names_are_unique() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
