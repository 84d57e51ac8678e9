//! From a pass's samples to named metrics, to the printed table and the
//! result line, and back again for `agree`.

use crate::catalog::{self, Better, MetricDef, END_TO_END, PER_LAYER};
use crate::json::{self, Value};
use crate::layers::Values;
use crate::spans::{self, Span};
use crate::stats::{mean, midmean, peak_rss_mib, quantile, summarize};
use crate::workloads::Outcome;
use std::collections::BTreeMap;

/// One reported number: the value, and where it has them, the number of
/// samples behind it and their quartiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reported {
    pub def: &'static MetricDef,
    pub value: f64,
    pub samples: usize,
    pub quartiles: Option<(f64, f64)>,
}

fn of_median(def: &'static MetricDef, samples: &[f64]) -> Reported {
    match summarize(samples) {
        Some(s) => Reported {
            def,
            value: s.median,
            samples: s.n,
            quartiles: Some((s.q1, s.q3)),
        },
        None => single(def, 0.0, 0),
    }
}

fn single(def: &'static MetricDef, value: f64, samples: usize) -> Reported {
    Reported {
        def,
        value,
        samples,
        quartiles: None,
    }
}

/// The interquartile mean of `samples` in place of their median (see
/// `Pass::query_loop` for why), beside the same count and quartiles.
fn of_midmean(def: &'static MetricDef, samples: &[f64]) -> Reported {
    Reported {
        value: midmean(samples).unwrap_or(0.0),
        ..of_median(def, samples)
    }
}

/// The end-to-end metrics of an untraced pass, in catalogue order.
pub fn end_to_end(outcome: &Outcome) -> Vec<Reported> {
    let samples = &outcome.pass.samples;
    let pass = &outcome.pass;
    END_TO_END
        .iter()
        .map(|def| match def.name {
            "setup_s" => of_median(def, samples.get("setup_s")),
            "ingest_updates_per_s" => of_median(def, samples.get("ingest_rate")),
            "epoch_refresh_ms" => of_median(def, samples.get("refresh_ms")),
            "epoch_rebuild_ms" => of_median(def, samples.get("rebuild_ms")),
            "query_per_s" => Reported {
                value: pass.queries_timed as f64 / pass.query_wall.as_secs_f64(),
                ..of_median(def, samples.get("query_rate"))
            },
            "query_p50_us" => of_midmean(def, samples.get("query_p50_us")),
            "query_p99_us" => of_midmean(def, samples.get("query_p99_us")),
            "recovery_s" => of_median(def, samples.get("recovery_s")),
            "sketch_bytes" => single(def, outcome.sketch_bytes, 1),
            "peak_rss_mb" => single(def, peak_rss_mib().unwrap_or(0.0), 1),
            other => unreachable!("end-to-end metric '{other}' has no definition"),
        })
        .collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metrics of a traced pass, in catalogue order: the
/// micro-loops' `values`, the pass's samples and spans, and the sums of
/// the program's telemetry. `overhead_pct` is traced ÷ untraced wall − 1.
pub fn per_layer(
    outcome: &Outcome,
    values: &Values,
    spans: &[Span],
    overhead_pct: f64,
) -> Vec<Reported> {
    let samples = &outcome.pass.samples;
    let tele = &outcome.telemetry;
    let by_variant = |i: usize| -> Vec<f64> {
        let nanos = &outcome.pass.query_nanos_by_variant[i];
        nanos.iter().map(|&ns| f64::from(ns)).collect()
    };
    let max_of = |name: &str| samples.get(name).iter().copied().fold(0.0, f64::max);
    let apply_wall_ns = outcome.pass.apply_wall.as_nanos() as f64;
    PER_LAYER
        .iter()
        .map(|def| {
            let sampled = |name: &str| of_median(def, samples.get(name));
            let phase = |ns: u64, n: u64| single(def, ratio(ns, n) / 1e6, n as usize);
            match def.name {
                "engine.send_wait_share" => single(
                    def,
                    if apply_wall_ns > 0.0 {
                        tele.send_wait_ns as f64 / apply_wall_ns
                    } else {
                        0.0
                    },
                    1,
                ),
                "engine.load_balance" => {
                    let total: u64 = tele.routed.iter().sum();
                    let max = tele.routed.iter().copied().max().unwrap_or(0);
                    single(def, ratio(max * tele.routed.len() as u64, total), 1)
                }
                "engine.batches_sent" => single(def, tele.batches_sent as f64, 1),
                "spanner.stretch_max" => {
                    single(def, max_of("stretch"), samples.get("stretch").len())
                }
                "sparsifier.max_cut_err" => {
                    single(def, max_of("cut_rel_err"), samples.get("cut_rel_err").len())
                }
                "sparsifier.cut_rel_err_p95" => {
                    let errs = samples.get("cut_rel_err");
                    single(def, quantile(errs, 0.95).unwrap_or(0.0), errs.len())
                }
                "service.apply_us_per_batch" => {
                    let us = samples.get("apply_us");
                    single(def, mean(us).unwrap_or(0.0), us.len())
                }
                "service.advance_ms" => sampled("advance_ms"),
                "service.fork_ms" => phase(tele.fork_ns, tele.fork_count),
                "service.merge_ms" => phase(tele.merge_ns, tele.merge_count),
                "service.seal_ms" => phase(tele.seal_ns, tele.seal_count),
                "service.forest_first_ms.patch" => sampled("forest_first_ms.patch"),
                "service.forest_first_ms.rebuild" => sampled("forest_first_ms.rebuild"),
                "service.oracle_first_ms.patch" => sampled("oracle_first_ms.patch"),
                "service.oracle_first_ms.rebuild" => sampled("oracle_first_ms.rebuild"),
                "service.cut_first_ms.patch" => sampled("cut_first_ms.patch"),
                "service.cut_first_ms.rebuild" => sampled("cut_first_ms.rebuild"),
                "service.artifact_patched" => single(def, tele.artifacts_patched as f64, 1),
                "service.artifact_rebuilt" => single(def, tele.artifacts_rebuilt as f64, 1),
                "service.query_connectivity_ns" => of_median(def, &by_variant(0)),
                "service.query_same_component_ns" => of_median(def, &by_variant(1)),
                "service.query_distance_ns" => of_median(def, &by_variant(2)),
                "service.query_is_far_ns" => of_median(def, &by_variant(3)),
                "service.query_cut_ns" => of_median(def, &by_variant(4)),
                "service.query_stats_ns" => of_median(def, &by_variant(5)),
                "service.oracle_cache_hit_ratio" => single(
                    def,
                    ratio(tele.oracle_hits, tele.oracle_hits + tele.oracle_misses),
                    (tele.oracle_hits + tele.oracle_misses) as usize,
                ),
                "store.checkpoint_ms" => sampled("checkpoint_ms"),
                "store.checkpoint_dir_bytes" => sampled("checkpoint_dir_bytes"),
                "store.recovery_load_ms" => sampled("recovery_load_ms"),
                "store.recovery_restore_ms" => sampled("recovery_restore_ms"),
                "store.recovery_replay_ms" => sampled("recovery_replay_ms"),
                "store.recovery_wal_open_ms" => sampled("recovery_wal_open_ms"),
                "telemetry.trace_overhead_pct" => single(def, overhead_pct, 1),
                "harness.unattributed_share" => {
                    single(def, spans::unattributed_share(spans, "workload"), 1)
                }
                // Everything else is a micro-loop's; a layer the workload
                // does not run has none and reports 0.
                name => single(def, values.get(name).copied().unwrap_or(0.0), 1),
            }
        })
        .collect()
}

/// The table a person reads: one row per metric.
pub fn table(workload: &str, metrics: &[Reported]) -> String {
    let mut out = format!(
        "{:<36} {:>8} {:>16} {:>9} {:>16} {:>16}\n",
        format!("[{workload}]"),
        "unit",
        "value",
        "samples",
        "q1",
        "q3"
    );
    for m in metrics {
        let (q1, q3) = m.quartiles.map_or(("-".into(), "-".into()), |(a, b)| {
            (format!("{a:.4}"), format!("{b:.4}"))
        });
        out.push_str(&format!(
            "{:<36} {:>8} {:>16.4} {:>9} {:>16} {:>16}\n",
            m.def.name, m.def.unit, m.value, m.samples, q1, q3
        ));
    }
    out
}

/// The result line: one JSON object, the last line of standard output.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Reported]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(m.def.name),
                m.value,
                json::quote(m.def.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    )
}

/// The metric values of one parsed result line.
pub fn metrics_of(result: &Value) -> BTreeMap<String, f64> {
    let fields = result.get("metrics").and_then(json::object);
    fields
        .into_iter()
        .flatten()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect()
}

/// A result set: the result lines of several workloads under one seed, as
/// `run` and `trace` write them and `agree` reads them.
pub fn result_set(kind: &str, seed: u64, seconds: f64, lines: &[(String, String)]) -> String {
    let results: Vec<String> = lines
        .iter()
        .map(|(workload, line)| format!("    {}: {line}", json::quote(workload)))
        .collect();
    format!(
        "{{\n  \"kind\": {},\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"results\": {{\n{}\n  }}\n}}\n",
        json::quote(kind),
        results.join(",\n")
    )
}

/// By how much of `a` the value `b` is worse, in the metric's direction.
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == b {
        return 0.0;
    }
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    delta / a.abs().max(f64::MIN_POSITIVE)
}

/// Compares two result sets metric by metric. A bounded metric agrees
/// when neither side is worse than the other by more than its bound; an
/// exact count must repeat exactly; the rest is printed for the reader.
/// Returns the rows and the number of disagreements.
pub fn agree(a: &Value, b: &Value, bounds: &BTreeMap<String, f64>) -> (String, usize) {
    let mut out = format!(
        "{:<18} {:<36} {:>16} {:>16} {:>9} {:>8}  verdict\n",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    let mut disagreements = 0;
    let results = |v| Value::get(v, "results").and_then(json::object);
    let (Some(ra), Some(rb)) = (results(a), results(b)) else {
        return ("not a result set: no \"results\" object\n".into(), 1);
    };
    for (workload, line_a) in ra {
        let Some(line_b) = rb.get(workload) else {
            out.push_str(&format!("{workload:<18} missing from B\n"));
            disagreements += 1;
            continue;
        };
        let (ma, mb) = (metrics_of(line_a), metrics_of(line_b));
        for (name, &va) in &ma {
            let Some(&vb) = mb.get(name) else {
                out.push_str(&format!("{workload:<18} {name:<36} missing from B\n"));
                disagreements += 1;
                continue;
            };
            let def = catalog::find(name);
            let better = def.map_or(Better::Lower, |d| d.better);
            let worse = worsening(better, va, vb).max(worsening(better, vb, va));
            let bound = bounds.get(name).copied();
            let verdict = if def.is_some_and(|d| d.exact) {
                if va == vb {
                    "exact"
                } else {
                    "DIFFERS (exact count)"
                }
            } else {
                match bound {
                    Some(limit) if worse > limit => "OUTSIDE BOUND",
                    Some(_) => "within bound",
                    None => "no bound",
                }
            };
            if verdict.chars().next().is_some_and(char::is_uppercase) {
                disagreements += 1;
            }
            out.push_str(&format!(
                "{workload:<18} {name:<36} {va:>16.4} {vb:>16.4} {:>8.2}% {:>8}  {verdict}\n",
                worse * 100.0,
                bound.map_or("-".into(), |limit| format!("{:.0}%", limit * 100.0)),
            ));
        }
    }
    (out, disagreements)
}

/// Self time per span name as a share of the workload span, largest
/// first: where the traced pass went.
pub fn self_time_summary(spans: &[Span]) -> String {
    let total: u64 = spans
        .iter()
        .filter(|s| s.name == "workload")
        .map(Span::nanos)
        .sum();
    let mut rows: Vec<(&str, u64, usize)> = spans::self_nanos_by_name(spans)
        .into_iter()
        .map(|(name, own)| (name, own, spans::durations(spans, name).len()))
        .collect();
    rows.sort_by_key(|&(_, own, _)| std::cmp::Reverse(own));
    let mut out = format!(
        "{:<28} {:>8} {:>12} {:>8}\n",
        "span", "calls", "self ms", "share"
    );
    for (name, own, calls) in rows.into_iter().filter(|(n, _, _)| !n.starts_with("micro")) {
        out.push_str(&format!(
            "{name:<28} {calls:>8} {:>12.2} {:>7.1}%\n",
            own as f64 / 1e6,
            100.0 * ratio(own, total)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ingest: f64, bytes: f64) -> Value {
        let def_i = catalog::find("ingest_updates_per_s").expect("listed");
        let def_b = catalog::find("sketch_bytes").expect("listed");
        let line = result_line(10, 0, &[single(def_i, ingest, 3), single(def_b, bytes, 1)]);
        let text = result_set("end_to_end", 1, 2.0, &[("ingest_churn".into(), line)]);
        json::parse(&text).expect("result sets are strict JSON")
    }

    fn bounds() -> BTreeMap<String, f64> {
        [
            ("ingest_updates_per_s".to_string(), 0.10),
            ("sketch_bytes".to_string(), 0.02),
        ]
        .into()
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let def = catalog::find("setup_s").expect("listed");
        let line = result_line(7, 1, &[single(def, 0.8127, 3)]);
        let v = json::parse(&line).expect("strict JSON");
        let keys: Vec<&String> = json::object(&v).expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(false));
        assert_eq!(metrics_of(&v)["setup_s"], 0.8127);
    }

    #[test]
    fn agreement_is_within_the_bound_in_both_directions() {
        let (_, n) = agree(&set(1000.0, 64.0), &set(1080.0, 64.0), &bounds());
        assert_eq!(n, 0, "8% apart is inside a 10% bound");
        let (rows, n) = agree(&set(1000.0, 64.0), &set(1200.0, 64.0), &bounds());
        assert_eq!(n, 1, "{rows}");
        let (_, n) = agree(&set(1200.0, 64.0), &set(1000.0, 64.0), &bounds());
        assert_eq!(n, 1, "and the same from the other side");
    }

    #[test]
    fn exact_counts_must_repeat_exactly() {
        let (rows, n) = agree(&set(1000.0, 64.0), &set(1000.0, 65.0), &bounds());
        assert_eq!(n, 1, "{rows}");
        assert!(rows.contains("DIFFERS"));
    }

    #[test]
    fn a_metric_missing_from_one_side_is_a_disagreement() {
        let b = json::parse("{\"results\": {\"ingest_churn\": {\"metrics\": {}}}}").expect("valid");
        let (_, n) = agree(&set(1.0, 1.0), &b, &bounds());
        assert_eq!(n, 2);
    }
}
