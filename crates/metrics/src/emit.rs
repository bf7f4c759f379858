//! Emission of experiment results as CSV and JSON.

use std::io::Write;

use crate::series::Series;

/// Writes a set of series as CSV: `x,name1,name2,...` with one row per
/// distinct x (series are assumed x-aligned, as all harnesses emit).
pub fn to_csv(series: &[Series]) -> String {
    let mut out = String::new();
    out.push('x');
    for s in series {
        out.push(',');
        out.push_str(&s.name);
    }
    out.push('\n');
    let rows = series.iter().map(|s| s.len()).max().unwrap_or(0);
    for i in 0..rows {
        let x = series
            .iter()
            .find_map(|s| s.samples.get(i).map(|p| p.x))
            .unwrap_or(i as f64);
        out.push_str(&format!("{x}"));
        for s in series {
            match s.samples.get(i) {
                Some(p) => out.push_str(&format!(",{}", p.y)),
                None => out.push(','),
            }
        }
        out.push('\n');
    }
    out
}

/// Serializes series to pretty JSON. Serialization failure surfaces as
/// an error for the caller to report, not a panic in the middle of an
/// hours-long sweep.
pub fn to_json(series: &[Series]) -> Result<String, serde_json::Error> {
    serde_json::to_string_pretty(series)
}

/// Writes both `<stem>.csv` and `<stem>.json` under `dir`, creating it.
pub fn write_results(dir: &std::path::Path, stem: &str, series: &[Series]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let json = to_json(series)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let mut f = std::fs::File::create(dir.join(format!("{stem}.csv")))?;
    f.write_all(to_csv(series).as_bytes())?;
    let mut f = std::fs::File::create(dir.join(format!("{stem}.json")))?;
    f.write_all(json.as_bytes())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_shape() {
        let mut a = Series::new("a");
        a.push(1.0, 10.0);
        a.push(2.0, 20.0);
        let mut b = Series::new("b");
        b.push(1.0, 1.5);
        let csv = to_csv(&[a, b]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,a,b");
        assert_eq!(lines[1], "1,10,1.5");
        assert_eq!(lines[2], "2,20,");
    }

    #[test]
    fn json_roundtrip() {
        let mut a = Series::new("a");
        a.push(1.0, 2.0);
        let j = to_json(&[a]).unwrap();
        let back: serde::Value = serde_json::from_str(&j).unwrap();
        let serde::Value::Arr(series) = back else {
            panic!("not an array: {back:?}")
        };
        assert_eq!(series[0].get("name"), Some(&serde::Value::Str("a".into())));
        assert!(matches!(series[0].get("samples"), Some(serde::Value::Arr(s)) if s.len() == 1));
    }

    #[test]
    fn write_results_creates_files() {
        let dir = std::env::temp_dir().join("masc_bgmp_metrics_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut a = Series::new("a");
        a.push(0.0, 1.0);
        write_results(&dir, "t", &[a]).unwrap();
        assert!(dir.join("t.csv").exists());
        assert!(dir.join("t.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
