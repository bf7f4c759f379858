//! What a run writes down, and the comparison of two sets of runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::Value;

use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats::{median, spread};

/// Everything one run of one workload reports.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Plain, traced and set-up repetition counts behind the medians.
    pub reps: [u64; 3],
    /// Verification checks attempted.
    pub attempted: u64,
    /// The verification checks that failed.
    pub failures: Vec<String>,
    /// End-to-end metrics (plain run only).
    pub end_to_end: BTreeMap<String, f64>,
    /// Count metrics of this workload: they repeat exactly for a seed.
    pub counts: BTreeMap<String, f64>,
    /// Every per-layer metric (traced run only).
    pub per_layer: BTreeMap<String, f64>,
}

fn metric_obj(value: f64, unit: &str) -> Value {
    Value::Obj(vec![
        ("value".into(), Value::F64(value)),
        ("unit".into(), Value::Str(unit.to_string())),
    ])
}

/// The unit of an end-to-end or per-layer metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find_map(|(n, u)| (n == name).then_some(u))
        .unwrap_or("")
}

fn metrics_obj(map: &BTreeMap<String, f64>) -> Value {
    Value::Obj(
        map.iter()
            .map(|(k, v)| (k.clone(), metric_obj(*v, unit_of(k))))
            .collect(),
    )
}

fn metrics_from(v: Option<&Value>) -> BTreeMap<String, f64> {
    let Some(Value::Obj(fields)) = v else {
        return BTreeMap::new();
    };
    fields
        .iter()
        .filter_map(|(k, m)| Some((k.clone(), number(m.get("value")?)?)))
        .collect()
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(x) => Some(*x),
        _ => None,
    }
}

impl Record {
    /// Verification checks failed.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics` — the end-to-end metrics of a plain run, the per-layer
    /// metrics of a traced one.
    pub fn result_line(&self) -> String {
        let metrics = if self.trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let line = Value::Obj(vec![
            ("correct".into(), Value::Bool(self.failed() == 0)),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed())),
            ("metrics".into(), metrics_obj(metrics)),
        ]);
        serde_json::to_string(&line).expect("a value tree serializes")
    }

    /// The record as it is stored in a results file.
    pub fn to_json(&self) -> Value {
        let reps = self.reps.iter().map(|r| Value::U64(*r)).collect();
        Value::Obj(vec![
            ("workload".into(), Value::Str(self.workload.clone())),
            ("seed".into(), Value::U64(self.seed)),
            ("trace".into(), Value::Bool(self.trace)),
            ("reps".into(), Value::Arr(reps)),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed())),
            (
                "failures".into(),
                Value::Arr(
                    self.failures
                        .iter()
                        .map(|f| Value::Str(f.clone()))
                        .collect(),
                ),
            ),
            ("end_to_end".into(), metrics_obj(&self.end_to_end)),
            ("counts".into(), metrics_obj(&self.counts)),
            ("per_layer".into(), metrics_obj(&self.per_layer)),
        ])
    }

    /// Reads a record back.
    pub fn from_json(v: &Value) -> Option<Record> {
        let int = |k: &str| match v.get(k)? {
            Value::U64(n) => Some(*n),
            _ => None,
        };
        let reps = match v.get("reps")? {
            Value::Arr(a) if a.len() == 3 => [number(&a[0])?, number(&a[1])?, number(&a[2])?],
            _ => return None,
        };
        Some(Record {
            workload: match v.get("workload")? {
                Value::Str(s) => s.clone(),
                _ => return None,
            },
            seed: int("seed")?,
            trace: matches!(v.get("trace")?, Value::Bool(true)),
            reps: reps.map(|r| r as u64),
            attempted: int("attempted")?,
            failures: match v.get("failures")? {
                Value::Arr(a) => a
                    .iter()
                    .filter_map(|f| match f {
                        Value::Str(s) => Some(s.clone()),
                        _ => None,
                    })
                    .collect(),
                _ => return None,
            },
            end_to_end: metrics_from(v.get("end_to_end")),
            counts: metrics_from(v.get("counts")),
            per_layer: metrics_from(v.get("per_layer")),
        })
    }
}

/// A results file: host facts and the records of one set of runs.
pub fn results_json(host: Value, records: &[Record]) -> Value {
    Value::Obj(vec![
        ("host".into(), host),
        (
            "runs".into(),
            Value::Arr(records.iter().map(Record::to_json).collect()),
        ),
    ])
}

/// Reads the records of a results file.
pub fn records_of(results: &Value) -> Result<Vec<Record>, String> {
    let Some(Value::Arr(runs)) = results.get("runs") else {
        return Err("no `runs` array".into());
    };
    runs.iter()
        .map(|r| Record::from_json(r).ok_or_else(|| "malformed run record".to_string()))
        .collect()
}

/// Verdict on one (workload, end-to-end metric) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound, so the medians
    /// decide nothing — unless every run of B beats every run of A.
    Unresolved,
}

impl Verdict {
    /// The word printed in the table.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares set `b` against set `a` for one metric.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    // How much worse B is, as a share of A's median.
    let worse = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let widest = spread(a).unwrap_or(0.0).max(spread(b).unwrap_or(0.0));
    if widest > bound {
        let b_beats_a = |x: &f64, y: &f64| match better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        };
        let all_better = a.iter().all(|x| b.iter().all(|y| b_beats_a(x, y)));
        if !all_better {
            return Verdict::Unresolved;
        }
    }
    if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// The `--compare` report and whether everything in it is acceptable:
/// one row per (workload, end-to-end metric), `fail_ratio` zero on both
/// sides, and every count metric identical for every (workload, seed)
/// both sets ran.
pub fn compare(a: &[Record], b: &[Record]) -> (String, bool) {
    let mut out = String::new();
    let mut all_ok = true;
    fn plain<'a>(set: &'a [Record], w: &str) -> Vec<&'a Record> {
        set.iter().filter(|r| r.workload == w && !r.trace).collect()
    }
    let mut workloads: Vec<&str> = a.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let _ = writeln!(
        out,
        "{:<13} {:<12} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "change", "spread", "bound"
    );
    for w in workloads {
        let (ra, rb) = (plain(a, w), plain(b, w));
        if ra.is_empty() || rb.is_empty() {
            let _ = writeln!(out, "{w:<13} missing from one set");
            all_ok = false;
            continue;
        }
        for m in &END_TO_END {
            let col = |set: &[&Record]| -> Vec<f64> {
                set.iter()
                    .filter_map(|r| r.end_to_end.get(m.name).copied())
                    .collect()
            };
            let (va, vb) = (col(&ra), col(&rb));
            if va.is_empty() || vb.is_empty() {
                let _ = writeln!(out, "{w:<13} {:<12} missing from one set", m.name);
                all_ok = false;
                continue;
            }
            let v = verdict(&va, &vb, m.better, m.bound);
            all_ok &= v == Verdict::Ok;
            let widest = spread(&va).unwrap_or(0.0).max(spread(&vb).unwrap_or(0.0));
            let _ = writeln!(
                out,
                "{w:<13} {:<12} {:>14.4} {:>14.4} {:>+7.1}% {:>7.1}% {:>5.0}%  {} (n={},{})",
                m.name,
                median(&va),
                median(&vb),
                (median(&vb) - median(&va)) / median(&va) * 100.0,
                widest * 100.0,
                m.bound * 100.0,
                v.word(),
                va.len(),
                vb.len(),
            );
        }
        let fails = |set: &[&Record]| set.iter().map(|r| r.failed()).sum::<u64>();
        let tried = |set: &[&Record]| set.iter().map(|r| r.attempted).sum::<u64>();
        let clean = fails(&ra) == 0 && fails(&rb) == 0;
        all_ok &= clean;
        let _ = writeln!(
            out,
            "{w:<13} {:<12} {:>14} {:>14} {:>8} {:>8} {:>6}  {}",
            "fail_ratio",
            format!("{}/{}", fails(&ra), tried(&ra)),
            format!("{}/{}", fails(&rb), tried(&rb)),
            "",
            "",
            "0",
            if clean { "ok" } else { "regressed" },
        );
    }
    // Counts: same workload, same seed, same kind of run → same counts.
    let mut compared = 0;
    for x in a {
        for y in b.iter().filter(|y| {
            (y.workload.as_str(), y.seed, y.trace) == (x.workload.as_str(), x.seed, x.trace)
        }) {
            for (name, va) in &x.counts {
                compared += 1;
                let vb = y.counts.get(name);
                if vb != Some(va) {
                    all_ok = false;
                    let _ = writeln!(
                        out,
                        "COUNT DIFFERS: {} seed {} {name}: {va} vs {vb:?}",
                        x.workload, x.seed
                    );
                }
            }
        }
    }
    let _ = writeln!(
        out,
        "{compared} count metrics compared on matching (workload, seed) runs"
    );
    (out, all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Within the bound either way.
        assert_eq!(
            verdict(&a, &[96.0, 97.0, 95.0, 96.5, 95.5], Better::Higher, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&a, &[120.0, 121.0, 119.0], Better::Higher, 0.10),
            Verdict::Ok
        );
        // 20 % lower throughput, 20 % more memory: regressions.
        assert_eq!(
            verdict(&a, &[80.0, 81.0, 79.0], Better::Higher, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&a, &[120.0, 121.0, 119.0], Better::Lower, 0.10),
            Verdict::Regressed
        );
        // A spread wider than the bound decides nothing …
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(
            verdict(&a, &noisy, Better::Higher, 0.10),
            Verdict::Unresolved
        );
        // … unless every run of B beats every run of A.
        let noisy_fast = [160.0, 200.0, 240.0, 180.0, 220.0];
        assert_eq!(verdict(&a, &noisy_fast, Better::Higher, 0.10), Verdict::Ok);
        // Single runs have no spread and compare by value.
        assert_eq!(
            verdict(&[100.0], &[95.0], Better::Higher, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&[100.0], &[85.0], Better::Higher, 0.10),
            Verdict::Regressed
        );
    }

    fn record(workload: &str, seed: u64, ops: f64, events: f64) -> Record {
        Record {
            workload: workload.into(),
            seed,
            attempted: 4,
            reps: [2, 0, 2],
            end_to_end: END_TO_END
                .iter()
                .map(|m| (m.name.to_string(), ops))
                .collect(),
            counts: [("simnet.events".to_string(), events)].into(),
            ..Record::default()
        }
    }

    #[test]
    fn compare_reports_rows_counts_and_failures() {
        let a = [record("w", 1, 100.0, 7.0), record("w", 2, 101.0, 8.0)];
        let (text, ok) = compare(&a, &a);
        assert!(ok, "{text}");
        for m in &END_TO_END {
            assert!(text.contains(m.name));
        }
        assert!(text.contains("fail_ratio") && text.contains("2 count metrics compared"));

        let mut drifted = a.to_vec();
        drifted[1].counts.insert("simnet.events".into(), 9.0);
        let (text, ok) = compare(&a, &drifted);
        assert!(!ok && text.contains("COUNT DIFFERS"), "{text}");

        let mut failing = a.to_vec();
        failing[0].failures.push("a check".into());
        assert!(!compare(&a, &failing).1);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = record("w", 1, 12.5, 3.0);
        let keys = |line: &str| -> Vec<String> {
            match serde_json::from_str::<Value>(line).expect("parses") {
                Value::Obj(f) => f.into_iter().map(|(k, _)| k).collect(),
                other => panic!("not an object: {other:?}"),
            }
        };
        let line = r.result_line();
        assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
        let parsed: Value = serde_json::from_str(&line).unwrap();
        let metrics = parsed.get("metrics").unwrap();
        for m in &END_TO_END {
            let entry = metrics.get(m.name).expect("every end-to-end metric");
            assert_eq!(entry.get("unit"), Some(&Value::Str(m.unit.into())));
            assert!(number(entry.get("value").unwrap()).is_some());
        }
        assert_eq!(parsed.get("correct"), Some(&Value::Bool(true)));
        assert!(!line.contains('\n'));

        // A traced run's line carries every per-layer metric instead.
        r.trace = true;
        r.per_layer = PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), 1.5))
            .collect();
        let parsed: Value = serde_json::from_str(&r.result_line()).unwrap();
        let Some(Value::Obj(fields)) = parsed.get("metrics") else {
            panic!("metrics missing")
        };
        assert_eq!(fields.len(), PER_LAYER.len());

        // And a record survives the results file.
        assert_eq!(Record::from_json(&r.to_json()), Some(r));
    }
}
