//! OLS regression task: satisfaction is held-out R², clamped to [0, 1].
//! Solved by normal equations with a small ridge term (no external linear
//! algebra dependency).

use rand::seq::SliceRandom;
use rand::SeedableRng;

use dmp_relation::Relation;

use crate::task::{Satisfaction, Task};

/// Solve `(XᵀX + λI) w = Xᵀy` by Gaussian elimination with partial
/// pivoting. `xs` rows are feature vectors *without* the bias column;
/// the function appends it.
pub fn ridge_fit(xs: &[Vec<f64>], ys: &[f64], lambda: f64) -> Option<Vec<f64>> {
    let n = xs.len();
    if n == 0 || n != ys.len() {
        return None;
    }
    let d = xs[0].len() + 1; // + bias
    let aug = |x: &Vec<f64>| -> Vec<f64> {
        let mut v = x.clone();
        v.push(1.0);
        v
    };
    // Build normal equations.
    let mut a = vec![vec![0.0f64; d + 1]; d]; // [A | b]
    for (x, &y) in xs.iter().zip(ys) {
        let xa = aug(x);
        for i in 0..d {
            for j in 0..d {
                a[i][j] += xa[i] * xa[j];
            }
            a[i][d] += xa[i] * y;
        }
    }
    for (i, row) in a.iter_mut().enumerate().take(d) {
        row[i] += lambda;
    }
    // Gaussian elimination with partial pivoting.
    #[allow(
        clippy::needless_range_loop,
        reason = "elimination reads and writes rows col, pivot and r of the same matrix"
    )]
    for col in 0..d {
        let pivot = (col..d).max_by(|&r1, &r2| a[r1][col].abs().total_cmp(&a[r2][col].abs()))?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        let div = a[col][col];
        for j in col..=d {
            a[col][j] /= div;
        }
        for row in 0..d {
            if row != col {
                let factor = a[row][col];
                if factor != 0.0 {
                    for j in col..=d {
                        a[row][j] -= factor * a[col][j];
                    }
                }
            }
        }
    }
    Some(a.iter().map(|row| row[d]).collect())
}

/// Predict with weights from [`ridge_fit`] (bias last).
pub fn predict(weights: &[f64], x: &[f64]) -> f64 {
    let d = weights.len() - 1;
    x.iter()
        .take(d)
        .zip(&weights[..d])
        .map(|(xi, wi)| xi * wi)
        .sum::<f64>()
        + weights[d]
}

/// The regression task: fit on a split, score held-out R².
#[derive(Debug, Clone)]
pub struct RegressionTask {
    /// Target column.
    pub target: String,
    /// Held-out fraction.
    pub test_fraction: f64,
    /// Split seed.
    pub seed: u64,
    /// Ridge regularization strength.
    pub lambda: f64,
}

impl RegressionTask {
    /// Default task for a target column.
    pub fn new(target: impl Into<String>) -> Self {
        RegressionTask {
            target: target.into(),
            test_fraction: 0.3,
            seed: 23,
            lambda: 1e-6,
        }
    }

    /// Raw held-out R² (can be negative for a useless model).
    pub fn r_squared(&self, mashup: &Relation) -> Option<f64> {
        let target_idx = mashup.col_index(&self.target).ok()?;
        let feature_idx: Vec<usize> = mashup
            .schema()
            .fields()
            .iter()
            .enumerate()
            .filter(|(i, f)| *i != target_idx && f.dtype().is_numeric())
            .map(|(i, _)| i)
            .collect();
        if feature_idx.is_empty() {
            return None;
        }
        let mut xs: Vec<Vec<f64>> = Vec::new();
        let mut ys: Vec<f64> = Vec::new();
        for row in mashup.rows() {
            let y = match row.get(target_idx).as_f64() {
                Some(v) => v,
                None => continue,
            };
            let x: Option<Vec<f64>> = feature_idx.iter().map(|&i| row.get(i).as_f64()).collect();
            if let Some(x) = x {
                xs.push(x);
                ys.push(y);
            }
        }
        if xs.len() < 10 {
            return None;
        }
        let mut idx: Vec<usize> = (0..xs.len()).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        idx.shuffle(&mut rng);
        let n_test =
            (((xs.len() as f64) * self.test_fraction).round() as usize).clamp(1, xs.len() - 2);
        let (test_idx, train_idx) = idx.split_at(n_test);
        let train_x: Vec<Vec<f64>> = train_idx.iter().map(|&i| xs[i].clone()).collect();
        let train_y: Vec<f64> = train_idx.iter().map(|&i| ys[i]).collect();
        let w = ridge_fit(&train_x, &train_y, self.lambda)?;

        let mean_y: f64 = test_idx.iter().map(|&i| ys[i]).sum::<f64>() / test_idx.len() as f64;
        let ss_tot: f64 = test_idx.iter().map(|&i| (ys[i] - mean_y).powi(2)).sum();
        let ss_res: f64 = test_idx
            .iter()
            .map(|&i| (ys[i] - predict(&w, &xs[i])).powi(2))
            .sum();
        if ss_tot < 1e-12 {
            return Some(if ss_res < 1e-9 { 1.0 } else { 0.0 });
        }
        Some(1.0 - ss_res / ss_tot)
    }
}

impl Task for RegressionTask {
    fn name(&self) -> &str {
        "regression"
    }

    fn evaluate(&self, mashup: &Relation) -> Satisfaction {
        match self.r_squared(mashup) {
            Some(r2) => Satisfaction::new(r2),
            None => Satisfaction::zero(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::linear_data;

    #[test]
    fn ridge_recovers_known_coefficients() {
        // y = 2x0 - 3x1 + 5
        let xs: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![i as f64 * 0.1, (i % 7) as f64])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x[0] - 3.0 * x[1] + 5.0).collect();
        let w = ridge_fit(&xs, &ys, 1e-9).unwrap();
        assert!((w[0] - 2.0).abs() < 1e-4, "{w:?}");
        assert!((w[1] + 3.0).abs() < 1e-4);
        assert!((w[2] - 5.0).abs() < 1e-3);
    }

    #[test]
    fn clean_linear_data_near_perfect_r2() {
        let rel = linear_data(300, 3, 0.01, 7);
        let s = RegressionTask::new("target").evaluate(&rel);
        assert!(s.value() > 0.95, "R² = {}", s.value());
    }

    #[test]
    fn noise_degrades_r2_monotonically() {
        let clean = linear_data(300, 3, 0.05, 7);
        let noisy = linear_data(300, 3, 5.0, 7);
        let t = RegressionTask::new("target");
        assert!(t.evaluate(&clean).value() > t.evaluate(&noisy).value());
    }

    #[test]
    fn missing_target_zero() {
        let rel = linear_data(100, 2, 0.1, 1);
        assert_eq!(RegressionTask::new("nope").evaluate(&rel).value(), 0.0);
    }

    #[test]
    fn singular_system_detected() {
        // all-zero features with zero ridge -> singular
        let xs = vec![vec![0.0]; 20];
        let ys = vec![1.0; 20];
        assert!(ridge_fit(&xs, &ys, 0.0).is_none());
        // ridge rescues it
        assert!(ridge_fit(&xs, &ys, 1e-3).is_some());
    }

    #[test]
    fn predict_uses_bias() {
        let w = vec![2.0, 1.0]; // y = 2x + 1
        assert!((predict(&w, &[3.0]) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_none() {
        assert!(ridge_fit(&[], &[], 0.1).is_none());
    }
}
