//! Named time series of (x, y) samples.

use serde::{Serialize, Value};

/// One sample point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// X coordinate (time in days, receiver count, …).
    pub x: f64,
    /// Y value.
    pub y: f64,
}

/// A named series of samples, e.g. one curve of a figure.
#[derive(Debug, Clone, Default)]
pub struct Series {
    /// Curve label as it appears in the figure legend.
    pub name: String,
    /// Samples in x order.
    pub samples: Vec<Sample>,
}

/// `{"x": …, "y": …}`.
impl Serialize for Sample {
    fn to_value(&self) -> Value {
        let Self { x, y } = self;
        Value::Obj(vec![
            ("x".to_string(), x.to_value()),
            ("y".to_string(), y.to_value()),
        ])
    }
}

/// `{"name": …, "samples": […]}`.
impl Serialize for Series {
    fn to_value(&self) -> Value {
        let Self { name, samples } = self;
        Value::Obj(vec![
            ("name".to_string(), name.to_value()),
            ("samples".to_string(), samples.to_value()),
        ])
    }
}

impl Series {
    /// Creates an empty series.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            samples: Vec::new(),
        }
    }

    /// Appends a sample.
    pub fn push(&mut self, x: f64, y: f64) {
        self.samples.push(Sample { x, y });
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The y values.
    pub fn ys(&self) -> impl Iterator<Item = f64> + '_ {
        self.samples.iter().map(|s| s.y)
    }

    /// Mean of y over samples with `x >= from` (steady-state summary).
    pub fn mean_y_from(&self, from: f64) -> Option<f64> {
        let v: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.x >= from)
            .map(|s| s.y)
            .collect();
        if v.is_empty() {
            None
        } else {
            Some(v.iter().sum::<f64>() / v.len() as f64)
        }
    }

    /// Maximum y over all samples.
    pub fn max_y(&self) -> Option<f64> {
        self.ys()
            .fold(None, |acc, y| Some(acc.map_or(y, |a: f64| a.max(y))))
    }

    /// Renders a compact ASCII sparkline of the y values.
    pub fn sparkline(&self, width: usize) -> String {
        const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        if self.samples.is_empty() || width == 0 {
            return String::new();
        }
        let min = self.ys().fold(f64::INFINITY, f64::min);
        let max = self.ys().fold(f64::NEG_INFINITY, f64::max);
        let span = (max - min).max(f64::EPSILON);
        let n = self.samples.len();
        (0..width.min(n))
            .map(|i| {
                let idx = i * n / width.min(n);
                let y = self.samples[idx].y;
                let level = (((y - min) / span) * 7.0).round() as usize;
                BARS[level.min(7)]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_summaries() {
        let mut s = Series::new("util");
        for (x, y) in [(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)] {
            s.push(x, y);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.max_y(), Some(5.0));
        assert_eq!(s.mean_y_from(1.0), Some(4.0));
        assert_eq!(s.mean_y_from(9.0), None);
    }

    #[test]
    fn sparkline_renders() {
        let mut s = Series::new("x");
        for i in 0..16 {
            s.push(i as f64, (i % 8) as f64);
        }
        let line = s.sparkline(8);
        assert_eq!(line.chars().count(), 8);
        assert!(Series::new("e").sparkline(8).is_empty());
    }
}
