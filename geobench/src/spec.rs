//! `BENCHMARK.json`: the declared workloads and metrics, validated against
//! the limits the benchmark contract sets before anything runs.

use geo_bench::json::{get, Parser, Value};

/// Whether a larger or a smaller value is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (rates, accuracy).
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median the metric may worsen by
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The validated contents of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSpec {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// `(name, why)` of each workload.
    pub workloads: Vec<(String, String)>,
    /// Metrics printed by untraced runs.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics printed by traced runs.
    pub per_layer: Vec<MetricSpec>,
}

fn exact_keys(fields: &[(String, Value)], keys: &[&str], what: &str) -> Result<(), String> {
    let mut have: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    let mut want = keys.to_vec();
    have.sort_unstable();
    want.sort_unstable();
    if have != want {
        return Err(format!(
            "{what} must have exactly the keys {keys:?}, has {have:?}"
        ));
    }
    Ok(())
}

fn check_name(name: &str, what: &str) -> Result<(), String> {
    let ok = name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
    ok.then_some(())
        .ok_or_else(|| format!("{what}: bad name {name:?}"))
}

fn check_unit(unit: &str, what: &str) -> Result<(), String> {
    let ok = !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
    ok.then_some(())
        .ok_or_else(|| format!("{what}: bad unit {unit:?}"))
}

fn check_path(path: &str, what: &str) -> Result<(), String> {
    let ok = !path.is_empty()
        && path.len() <= 200
        && !path.starts_with('/')
        && !path.split('/').any(|part| part == "..")
        && path
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c));
    ok.then_some(())
        .ok_or_else(|| format!("{what}: bad path {path:?}"))
}

fn strings<'v>(v: &'v Value, what: &str, max: usize) -> Result<Vec<&'v str>, String> {
    let items = v.as_array(what)?;
    if items.is_empty() || items.len() > max {
        return Err(format!("{what} must hold 1 to {max} entries"));
    }
    items.iter().map(|s| s.as_str(what)).collect()
}

fn metrics(v: &Value, what: &str, max: usize, bounded: bool) -> Result<Vec<MetricSpec>, String> {
    let items = v.as_array(what)?;
    if items.is_empty() || items.len() > max {
        return Err(format!("{what} must hold 1 to {max} metrics"));
    }
    let mut keys = vec!["name", "unit", "better"];
    if bounded {
        keys.push("bound");
    }
    items
        .iter()
        .map(|item| {
            let f = item.as_object(what)?;
            exact_keys(f, &keys, what)?;
            let name = get(f, "name")?.as_str(what)?.to_string();
            check_name(&name, what)?;
            let unit = get(f, "unit")?.as_str(what)?.to_string();
            check_unit(&unit, what)?;
            let better = match get(f, "better")?.as_str(what)? {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => {
                    return Err(format!(
                        "{name}: better must be lower or higher, not {other}"
                    ))
                }
            };
            let bound = if bounded {
                let b = get(f, "bound")?.as_f64(what)?;
                if !(b > 0.0 && b <= 0.25) {
                    return Err(format!("{name}: bound {b} outside (0, 0.25]"));
                }
                Some(b)
            } else {
                None
            };
            Ok(MetricSpec {
                name,
                unit,
                better,
                bound,
            })
        })
        .collect()
}

impl BenchSpec {
    /// Parses and validates `BENCHMARK.json` text.
    ///
    /// # Errors
    ///
    /// Names the first rule the file breaks.
    pub fn parse(text: &str) -> Result<Self, String> {
        if text.len() > 64 * 1024 {
            return Err("BENCHMARK.json exceeds 64 KiB".into());
        }
        let doc = Parser::new(text).parse_document()?;
        let top = doc.as_object("BENCHMARK.json")?;
        exact_keys(
            top,
            &[
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer",
            ],
            "BENCHMARK.json",
        )?;
        let command = strings(get(top, "command")?, "command", 32)?;
        for arg in &command {
            if arg.len() > 200 || arg.starts_with('/') || arg.split('/').any(|p| p == "..") {
                return Err(format!("command: bad argument {arg:?}"));
            }
        }
        for path in strings(get(top, "paths")?, "paths", 16)? {
            check_path(path, "paths")?;
        }
        let run_seconds = get(top, "run_seconds")?.as_u64("run_seconds")?;
        if !(1..=60).contains(&run_seconds) {
            return Err(format!("run_seconds {run_seconds} outside 1..=60"));
        }
        let items = get(top, "workloads")?.as_array("workloads")?;
        if !(2..=8).contains(&items.len()) {
            return Err("workloads must hold 2 to 8 entries".into());
        }
        let workloads = items
            .iter()
            .map(|w| {
                let f = w.as_object("workload")?;
                exact_keys(f, &["name", "why"], "workload")?;
                let name = get(f, "name")?.as_str("workload name")?.to_string();
                check_name(&name, "workload")?;
                let why = get(f, "why")?.as_str("workload why")?.to_string();
                if why.is_empty() || why.len() > 200 || why.contains('\n') {
                    return Err(format!(
                        "{name}: why must be one line of at most 200 characters"
                    ));
                }
                Ok((name, why))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let end_to_end = metrics(get(top, "end_to_end")?, "end_to_end", 16, true)?;
        let per_layer = metrics(get(top, "per_layer")?, "per_layer", 128, false)?;

        let mut names: Vec<&str> = workloads.iter().map(|(n, _)| n.as_str()).collect();
        names.extend(end_to_end.iter().chain(&per_layer).map(|m| m.name.as_str()));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("name {:?} is used more than once", w[0]));
        }
        let setup = end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .ok_or("end_to_end must declare setup_s")?;
        if setup.unit != "s" || setup.better != Better::Lower {
            return Err("setup_s must be in s with better = lower".into());
        }
        let widest = end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        if setup.bound != Some(widest) {
            return Err("setup_s must carry the largest bound".into());
        }
        Ok(BenchSpec {
            run_seconds,
            workloads,
            end_to_end,
            per_layer,
        })
    }

    /// Reads and validates the file at `path`.
    ///
    /// # Errors
    ///
    /// Reports an unreadable or invalid file.
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Self::parse(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// The declared metric called `name`, in either list.
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Metric, Workload, END_TO_END, PER_LAYER};

    fn repo_spec_text() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
    }

    #[test]
    fn repository_spec_is_valid_and_matches_the_workloads() {
        let spec = BenchSpec::parse(&repo_spec_text()).expect("valid BENCHMARK.json");
        let declared: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(declared, known);
        // Every run prints exactly the declared metrics, with their units.
        let pairs = |ms: &[MetricSpec]| -> Vec<(String, String)> {
            ms.iter()
                .map(|m| (m.name.clone(), m.unit.clone()))
                .collect()
        };
        let owned = |ms: &[Metric]| -> Vec<(String, String)> {
            ms.iter().map(|&(n, u)| (n.into(), u.into())).collect()
        };
        assert_eq!(pairs(&spec.end_to_end), owned(&END_TO_END));
        assert_eq!(pairs(&spec.per_layer), owned(&PER_LAYER));
    }

    #[test]
    fn serve_rates_are_frozen_in_the_spec() {
        let spec = BenchSpec::parse(&repo_spec_text()).expect("valid BENCHMARK.json");
        let why = &spec
            .workloads
            .iter()
            .find(|(n, _)| n == "serve")
            .expect("serve workload")
            .1;
        for rate in [crate::serve::LOW_RPS, crate::serve::HIGH_RPS] {
            assert!(why.contains(&format!("{rate} req/s")), "{why}");
        }
    }

    fn minimal(e2e: &str) -> String {
        format!(
            r#"{{"command": ["cargo", "run"], "paths": ["geobench"], "run_seconds": 10,
               "workloads": [{{"name": "a", "why": "x"}}, {{"name": "b", "why": "y"}}],
               "end_to_end": [{e2e}],
               "per_layer": [{{"name": "l", "unit": "ms", "better": "lower"}}]}}"#
        )
    }

    #[test]
    fn contract_violations_are_rejected() {
        let setup = r#"{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}"#;
        assert!(BenchSpec::parse(&minimal(setup)).is_ok());
        let cases = [
            // bound above the 0.25 ceiling
            r#"{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.3}"#.to_string(),
            // no setup_s
            r#"{"name": "t", "unit": "s", "better": "lower", "bound": 0.1}"#.to_string(),
            // setup_s without the largest bound
            format!(r#"{setup}, {{"name": "t", "unit": "s", "better": "lower", "bound": 0.25}}"#)
                .replace("0.25}, {", "0.1}, {"),
            // a name used twice
            format!(r#"{setup}, {{"name": "l", "unit": "ms", "better": "lower", "bound": 0.1}}"#),
            // an unknown direction
            r#"{"name": "setup_s", "unit": "s", "better": "up", "bound": 0.25}"#.to_string(),
            // an extra key
            r#"{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25, "x": 1}"#
                .to_string(),
            // a unit with a space
            r#"{"name": "setup_s", "unit": "s s", "better": "lower", "bound": 0.25}"#.to_string(),
        ];
        for e2e in cases {
            assert!(BenchSpec::parse(&minimal(&e2e)).is_err(), "{e2e}");
        }
        let escaping = minimal(setup).replace("[\"geobench\"]", "[\"../x\"]");
        assert!(BenchSpec::parse(&escaping).is_err());
        let one_workload = minimal(setup).replace(r#", {"name": "b", "why": "y"}"#, "");
        assert!(BenchSpec::parse(&one_workload).is_err());
    }
}
