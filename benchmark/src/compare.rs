//! `compare A.json B.json`: is B worse than A?
//!
//! Per workload and end-to-end metric it takes the median and quartiles of
//! each file's untraced runs, as the driver does, and marks the pair
//! `worse` (B's median is worse than A's by more than the bound),
//! `unresolved` (not worse, but a file's quartile distance is wider than the
//! bound, so "no change" cannot be claimed) or `within`.

use crate::spec::{Better, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::quartiles;
use serde::Value;

pub const SCHEMA: &str = "tbpoint-benchmark-v1";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Unresolved,
    Worse,
}

impl Verdict {
    fn tag(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Unresolved => "unresolved",
            Verdict::Worse => "worse",
        }
    }
}

/// Quartile distance as a share of the median.
fn spread(q: [f64; 3]) -> f64 {
    if q[1] == 0.0 {
        0.0
    } else {
        ((q[2] - q[0]) / q[1]).abs()
    }
}

/// By what share of A's median B's median is worse (negative: better).
fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match def.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let (qa, qb) = (quartiles(a), quartiles(b));
    if worse_by(def, qa[1], qb[1]) > def.bound {
        Verdict::Worse
    } else if spread(qa).max(spread(qb)) > def.bound {
        Verdict::Unresolved
    } else {
        Verdict::Within
    }
}

pub fn get<'a>(v: &'a Value, name: &str) -> Option<&'a Value> {
    v.as_obj()?.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::F64(x) => Some(x),
        Value::U64(n) => Some(n as f64),
        Value::I64(n) => Some(n as f64),
        _ => None,
    }
}

/// The values of `metric` over the file's runs of `workload` with the given
/// trace flag.
fn values(doc: &Value, workload: &str, trace: u64, metric: &str) -> Vec<f64> {
    let runs = get(doc, "runs").and_then(Value::as_arr).unwrap_or(&[]);
    runs.iter()
        .filter(|r| {
            get(r, "workload") == Some(&Value::Str(workload.into()))
                && get(r, "trace") == Some(&Value::U64(trace))
        })
        .filter_map(|r| {
            let m = get(get(get(r, "result")?, "metrics")?, metric)?;
            number(get(m, "value")?)
        })
        .collect()
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = serde_json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if get(&doc, "schema") != Some(&Value::Str(SCHEMA.into())) {
        return Err(format!("{path}: not a `{SCHEMA}` result file"));
    }
    Ok(doc)
}

/// Print the comparison. `Ok(false)` when any pair is `worse`.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut worse = 0;
    let mut unresolved = 0;
    let mut judged = 0;
    println!(
        "{:<16} {:<20} {:>4} {:>12} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "n", "A median", "A q1..q3", "B median", "B q1..q3", "delta", "bound"
    );
    for w in &WORKLOADS {
        for def in &END_TO_END {
            let (va, vb) = (
                values(&a, w.name, 0, def.name),
                values(&b, w.name, 0, def.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            let verdict = judge(def, &va, &vb);
            judged += 1;
            worse += usize::from(verdict == Verdict::Worse);
            unresolved += usize::from(verdict == Verdict::Unresolved);
            println!(
                "{:<16} {:<20} {:>4} {:>12.5} {:>11.2}% {:>12.5} {:>11.2}% {:>+7.2}% {:>5.2}%  {}",
                w.name,
                def.name,
                va.len().min(vb.len()),
                qa[1],
                100.0 * spread(qa),
                qb[1],
                100.0 * spread(qb),
                100.0 * worse_by(def, qa[1], qb[1]),
                100.0 * def.bound,
                verdict.tag()
            );
        }
    }
    if judged == 0 {
        return Err("the two files share no workload with untraced runs".to_string());
    }

    // Per-layer metrics carry no bound; shown so a change can be followed
    // into the layer it touched. `=` marks values that agree exactly.
    let mut header = false;
    for w in &WORKLOADS {
        for def in &PER_LAYER {
            let (va, vb) = (
                values(&a, w.name, 1, def.name),
                values(&b, w.name, 1, def.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            if !header {
                println!("\nper-layer medians of the traced runs (no bounds, `delta` = worse by):");
                header = true;
            }
            let (ma, mb) = (quartiles(&va)[1], quartiles(&vb)[1]);
            println!(
                "{:<16} {:<28} {:>16.6} {:>16.6} {:>10}  {}",
                w.name,
                def.name,
                ma,
                mb,
                if ma == mb {
                    "=".to_string()
                } else {
                    format!("{:+.2}%", 100.0 * worse_by(def, ma, mb))
                },
                def.unit
            );
        }
    }
    println!("\n{judged} pairs judged: {worse} worse, {unresolved} unresolved");
    Ok(worse == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: MetricDef = MetricDef {
        name: "t",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
    };
    const HIGHER: MetricDef = MetricDef {
        name: "r",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    };

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [1.00, 1.01, 0.99, 1.00, 1.01];
        let slower: Vec<f64> = steady.iter().map(|x| x * 1.2).collect();
        assert_eq!(judge(&LOWER, &steady, &steady), Verdict::Within);
        assert_eq!(judge(&LOWER, &steady, &slower), Verdict::Worse);
        assert_eq!(judge(&LOWER, &slower, &steady), Verdict::Within);
        // The same numbers read as a rate: lower is now the worse side.
        assert_eq!(judge(&HIGHER, &steady, &slower), Verdict::Within);
        assert_eq!(judge(&HIGHER, &slower, &steady), Verdict::Worse);

        let noisy = [0.8, 1.0, 1.2, 0.9, 1.1];
        assert_eq!(judge(&LOWER, &steady, &noisy), Verdict::Unresolved);
    }
}
