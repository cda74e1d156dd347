//! A from-scratch classifier for WTP evaluation: the paper's running
//! example is a buyer who "wants to build a machine learning classifier
//! \[with\] at least an accuracy of 80% for the responsible engineer to
//! trust the classifier" (§1). The satisfaction metric is held-out
//! accuracy on the candidate mashup.

use rand::seq::SliceRandom;
use rand::SeedableRng;

use dmp_relation::{Relation, Value};

use crate::task::{Satisfaction, Task};

/// A dense numeric dataset extracted from a relation.
struct NumericDataset {
    xs: Vec<Vec<f64>>,
    ys: Vec<i64>,
}

/// Pull numeric feature columns + an integer-ish label column out of a
/// relation, dropping rows with nulls/non-numerics.
fn extract(rel: &Relation, label: &str) -> Option<NumericDataset> {
    let label_idx = rel.col_index(label).ok()?;
    // A feature column is numeric by declared type, or Any-typed with
    // numeric content (transformed columns come back as Any).
    let numeric_content = |i: usize| {
        rel.rows()
            .iter()
            .take(20)
            .any(|r| r.get(i).as_f64().is_some())
    };
    let feature_idx: Vec<usize> = rel
        .schema()
        .fields()
        .iter()
        .enumerate()
        .filter(|(i, f)| {
            *i != label_idx
                && (f.dtype().is_numeric()
                    || (f.dtype() == dmp_relation::DataType::Any && numeric_content(*i)))
        })
        .map(|(i, _)| i)
        .collect();
    if feature_idx.is_empty() {
        return None;
    }
    let mut xs = Vec::with_capacity(rel.len());
    let mut ys = Vec::with_capacity(rel.len());
    for row in rel.rows() {
        let y = match row.get(label_idx) {
            Value::Int(v) => *v,
            Value::Bool(b) => *b as i64,
            v => match v.as_i64() {
                Some(v) => v,
                None => continue,
            },
        };
        let feats: Option<Vec<f64>> = feature_idx.iter().map(|&i| row.get(i).as_f64()).collect();
        if let Some(x) = feats {
            xs.push(x);
            ys.push(y);
        }
    }
    if xs.is_empty() {
        None
    } else {
        Some(NumericDataset { xs, ys })
    }
}

/// Column-standardize features in place; returns (means, stds).
fn standardize(xs: &mut [Vec<f64>]) {
    if xs.is_empty() {
        return;
    }
    let d = xs[0].len();
    let n = xs.len() as f64;
    for j in 0..d {
        let mean = xs.iter().map(|x| x[j]).sum::<f64>() / n;
        let var = xs.iter().map(|x| (x[j] - mean).powi(2)).sum::<f64>() / n;
        let std = var.sqrt().max(1e-9);
        for x in xs.iter_mut() {
            x[j] = (x[j] - mean) / std;
        }
    }
}

/// Binary logistic regression trained by batch gradient descent.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    /// Weights (bias last).
    pub weights: Vec<f64>,
    /// Learning rate.
    pub lr: f64,
    /// Training epochs.
    pub epochs: usize,
}

impl LogisticRegression {
    /// Untrained model with sensible defaults.
    pub fn new() -> Self {
        LogisticRegression {
            weights: Vec::new(),
            lr: 0.5,
            epochs: 150,
        }
    }

    fn sigmoid(z: f64) -> f64 {
        1.0 / (1.0 + (-z).exp())
    }

    /// Fit on standardized features and 0/1 labels.
    pub fn fit(&mut self, xs: &[Vec<f64>], ys: &[i64]) {
        let n = xs.len();
        if n == 0 {
            return;
        }
        let d = xs[0].len();
        self.weights = vec![0.0; d + 1];
        for _ in 0..self.epochs {
            let mut grad = vec![0.0f64; d + 1];
            for (x, &y) in xs.iter().zip(ys) {
                let z: f64 = x
                    .iter()
                    .zip(&self.weights[..d])
                    .map(|(xi, wi)| xi * wi)
                    .sum::<f64>()
                    + self.weights[d];
                let err = Self::sigmoid(z) - (y.clamp(0, 1) as f64);
                for j in 0..d {
                    grad[j] += err * x[j];
                }
                grad[d] += err;
            }
            for (w, g) in self.weights.iter_mut().zip(&grad) {
                *w -= self.lr * g / n as f64;
            }
        }
    }

    /// Predict a 0/1 label.
    pub fn predict(&self, x: &[f64]) -> i64 {
        let d = self.weights.len().saturating_sub(1);
        let z: f64 = x
            .iter()
            .take(d)
            .zip(&self.weights[..d])
            .map(|(xi, wi)| xi * wi)
            .sum::<f64>()
            + self.weights.get(d).copied().unwrap_or(0.0);
        (Self::sigmoid(z) >= 0.5) as i64
    }
}

impl Default for LogisticRegression {
    fn default() -> Self {
        Self::new()
    }
}

/// The classification task: train on a split of the mashup, return
/// held-out accuracy as satisfaction.
#[derive(Debug, Clone)]
pub struct ClassifierTask {
    /// Label column the mashup must contain.
    pub label: String,
    /// Held-out fraction (default 0.3).
    pub test_fraction: f64,
    /// Split seed (determinism for audits).
    pub seed: u64,
}

impl ClassifierTask {
    /// Logistic-regression task on `label`.
    pub fn logistic(label: impl Into<String>) -> Self {
        ClassifierTask {
            label: label.into(),
            test_fraction: 0.3,
            seed: 17,
        }
    }

    /// Train/evaluate returning raw accuracy (also used by benches).
    pub fn accuracy(&self, mashup: &Relation) -> Option<f64> {
        let mut data = extract(mashup, &self.label)?;
        if data.xs.len() < 10 {
            return None;
        }
        standardize(&mut data.xs);
        let mut idx: Vec<usize> = (0..data.xs.len()).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        idx.shuffle(&mut rng);
        let n_test = ((data.xs.len() as f64) * self.test_fraction).round() as usize;
        let n_test = n_test.clamp(1, data.xs.len() - 1);
        let (test_idx, train_idx) = idx.split_at(n_test);

        let train_x: Vec<Vec<f64>> = train_idx.iter().map(|&i| data.xs[i].clone()).collect();
        let train_y: Vec<i64> = train_idx.iter().map(|&i| data.ys[i]).collect();

        let mut model = LogisticRegression::new();
        model.fit(&train_x, &train_y);

        // Logistic is binary: targets clamp to {0, 1}.
        let hits = test_idx
            .iter()
            .filter(|&&i| model.predict(&data.xs[i]) == data.ys[i].clamp(0, 1))
            .count();
        Some(hits as f64 / test_idx.len() as f64)
    }
}

impl Task for ClassifierTask {
    fn name(&self) -> &str {
        "classifier"
    }

    fn evaluate(&self, mashup: &Relation) -> Satisfaction {
        match self.accuracy(mashup) {
            Some(acc) => Satisfaction::new(acc),
            None => Satisfaction::zero(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::gaussian_blobs;

    #[test]
    fn logistic_separable_data_high_accuracy() {
        let rel = gaussian_blobs(400, 2, 3.0, 99);
        let task = ClassifierTask::logistic("label");
        let s = task.evaluate(&rel);
        assert!(s.value() > 0.9, "accuracy {} on separable blobs", s.value());
    }

    #[test]
    fn overlapping_classes_lower_accuracy() {
        let easy = gaussian_blobs(400, 2, 3.0, 1);
        let hard = gaussian_blobs(400, 2, 0.2, 1);
        let task = ClassifierTask::logistic("label");
        assert!(task.evaluate(&easy).value() > task.evaluate(&hard).value());
    }

    #[test]
    fn missing_label_is_zero_satisfaction() {
        let rel = gaussian_blobs(100, 2, 1.0, 1);
        let task = ClassifierTask::logistic("no_such_label");
        assert_eq!(task.evaluate(&rel).value(), 0.0);
    }

    #[test]
    fn too_few_rows_is_zero() {
        let rel = gaussian_blobs(8, 2, 1.0, 1);
        let task = ClassifierTask::logistic("label");
        assert_eq!(task.evaluate(&rel).value(), 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let rel = gaussian_blobs(200, 2, 1.0, 4);
        let task = ClassifierTask::logistic("label");
        assert_eq!(task.evaluate(&rel).value(), task.evaluate(&rel).value());
    }

    #[test]
    fn logistic_learns_xor_poorly_but_runs() {
        // XOR is not linearly separable: accuracy should be mediocre but
        // the pipeline must not crash.
        use dmp_relation::{DataType, RelationBuilder, Value};
        let mut b = RelationBuilder::new("xor")
            .column("x1", DataType::Float)
            .column("x2", DataType::Float)
            .column("label", DataType::Int);
        for i in 0..200 {
            let x1 = (i % 2) as f64;
            let x2 = ((i / 2) % 2) as f64;
            let y = (x1 as i64) ^ (x2 as i64);
            b = b.row(vec![Value::Float(x1), Value::Float(x2), Value::Int(y)]);
        }
        let rel = b.build().unwrap();
        let task = ClassifierTask::logistic("label");
        let s = task.evaluate(&rel).value();
        assert!((0.0..=1.0).contains(&s));
    }
}
