//! Differential-privacy mechanisms (§4.2, \[38\]): Laplace noise applied
//! per cell to a numeric column, geometric noise for integer queries,
//! Gaussian for (ε, δ)-DP, and randomized response for categorical
//! cells. Used by the seller platform to produce safe releases, with the
//! privacy–value trade-off measured in E9.

use rand::Rng;

use dmp_relation::{RelResult, Relation, Value};

/// Parameters of a differentially private release.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpParams {
    /// Privacy budget ε (> 0; smaller = more private).
    pub epsilon: f64,
    /// Query sensitivity Δ (max change from one record).
    pub sensitivity: f64,
}

impl DpParams {
    /// Construct; clamps ε and Δ to positive minima.
    pub fn new(epsilon: f64, sensitivity: f64) -> Self {
        DpParams {
            epsilon: epsilon.max(1e-9),
            sensitivity: sensitivity.max(0.0),
        }
    }

    /// The Laplace scale `b = Δ/ε`.
    pub fn laplace_scale(&self) -> f64 {
        self.sensitivity / self.epsilon
    }
}

/// Draw Laplace(0, b) noise by inverse CDF.
pub fn laplace_noise(b: f64, rng: &mut impl Rng) -> f64 {
    if b <= 0.0 {
        return 0.0;
    }
    let u: f64 = rng.gen_range(-0.5..0.5);
    -b * u.signum() * (1.0 - 2.0 * u.abs()).ln()
}

/// The geometric mechanism (discrete Laplace) for integer-valued queries:
/// adds two-sided geometric noise with parameter `α = exp(−ε/Δ)`.
pub fn geometric_mechanism(true_value: i64, params: DpParams, rng: &mut impl Rng) -> i64 {
    let alpha = (-params.epsilon / params.sensitivity.max(1e-12)).exp();
    if alpha <= 0.0 || alpha >= 1.0 {
        return true_value;
    }
    // Difference of two geometric variables.
    let draw = |rng: &mut dyn rand::RngCore| -> i64 {
        let u: f64 = rand::Rng::gen::<f64>(rng);
        (u.ln() / alpha.ln()).floor() as i64
    };
    true_value + draw(rng) - draw(rng)
}

/// Gaussian mechanism for (ε, δ)-DP: σ = Δ·√(2 ln(1.25/δ)) / ε.
pub fn gaussian_mechanism(
    true_value: f64,
    params: DpParams,
    delta: f64,
    rng: &mut impl Rng,
) -> f64 {
    let delta = delta.clamp(1e-12, 0.5);
    let sigma = params.sensitivity * (2.0 * (1.25 / delta).ln()).sqrt() / params.epsilon;
    // Box–Muller.
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    true_value + sigma * z
}

/// Randomized response for a boolean attribute with budget ε: answer
/// truthfully with probability `e^ε/(e^ε+1)`, else flip. ε-DP for one
/// bit; the workhorse for categorical perturbation.
pub fn randomized_response(truth: bool, epsilon: f64, rng: &mut impl Rng) -> bool {
    let p_truth = epsilon.exp() / (epsilon.exp() + 1.0);
    if rng.gen::<f64>() < p_truth {
        truth
    } else {
        !truth
    }
}

/// Perturb a numeric column of a relation with per-cell Laplace noise —
/// the seller-side "safe release" path. Non-numeric/null cells pass
/// through. Note: per-cell noise of scale Δ/ε gives ε-DP per cell under
/// the bounded-Δ model the seller declares.
pub fn perturb_numeric_column(
    rel: &Relation,
    col: &str,
    params: DpParams,
    rng: &mut impl Rng,
) -> RelResult<Relation> {
    let scale = params.laplace_scale();
    let mut noises: Vec<f64> = Vec::with_capacity(rel.len());
    for _ in 0..rel.len() {
        noises.push(laplace_noise(scale, rng));
    }
    let mut i = 0usize;
    rel.map_column(col, move |v| {
        let out = match v.as_f64() {
            Some(x) => Value::Float(x + noises[i % noises.len().max(1)]),
            None => v.clone(),
        };
        i += 1;
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    #[test]
    fn laplace_noise_is_centered_with_right_spread() {
        let mut r = rng();
        let b = 2.0;
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| laplace_noise(b, &mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let mean_abs = samples.iter().map(|x| x.abs()).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((mean_abs - b).abs() < 0.05, "E|X| = {mean_abs}, want {b}");
    }

    #[test]
    fn smaller_epsilon_means_more_noise() {
        let tight = DpParams::new(0.1, 1.0);
        let loose = DpParams::new(10.0, 1.0);
        assert!(tight.laplace_scale() > loose.laplace_scale());
        assert_eq!(tight.laplace_scale(), 10.0);
    }

    #[test]
    fn geometric_mechanism_returns_integers_near_truth() {
        let mut r = rng();
        let params = DpParams::new(1.0, 1.0);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| geometric_mechanism(100, params, &mut r) as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - 100.0).abs() < 0.5, "mean {mean}");
    }

    #[test]
    fn gaussian_mechanism_centered() {
        let mut r = rng();
        let params = DpParams::new(1.0, 1.0);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| gaussian_mechanism(5.0, params, 1e-5, &mut r))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn randomized_response_truth_rate_matches_epsilon() {
        let mut r = rng();
        let eps = 1.0f64;
        let n = 50_000;
        let truthful = (0..n)
            .filter(|_| randomized_response(true, eps, &mut r))
            .count() as f64
            / n as f64;
        let want = eps.exp() / (eps.exp() + 1.0);
        assert!(
            (truthful - want).abs() < 0.01,
            "rate {truthful}, want {want}"
        );
    }

    #[test]
    fn perturb_column_preserves_shape_and_nulls() {
        use dmp_relation::{DataType, RelationBuilder};
        let rel = RelationBuilder::new("t")
            .column("x", DataType::Float)
            .column("s", DataType::Str)
            .row(vec![Value::Float(10.0), Value::str("a")])
            .row(vec![Value::Null, Value::str("b")])
            .build()
            .unwrap();
        let mut r = rng();
        let out = perturb_numeric_column(&rel, "x", DpParams::new(1.0, 1.0), &mut r).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.rows()[1].get(0).is_null(), "nulls pass through");
        assert!(
            out.rows()[0].get(0).as_f64().unwrap() != 10.0,
            "noise applied"
        );
        assert_eq!(out.rows()[0].get(1), &Value::str("a"));
    }

    #[test]
    fn high_epsilon_perturbation_is_small() {
        use dmp_relation::{DataType, RelationBuilder};
        let mut b = RelationBuilder::new("t").column("x", DataType::Float);
        for i in 0..200 {
            b = b.row(vec![Value::Float(i as f64)]);
        }
        let rel = b.build().unwrap();
        let mut r = rng();
        let out = perturb_numeric_column(&rel, "x", DpParams::new(100.0, 1.0), &mut r).unwrap();
        let max_err = rel
            .column_f64("x")
            .unwrap()
            .iter()
            .zip(out.column_f64("x").unwrap())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(max_err < 0.5, "max err {max_err}");
    }

    #[test]
    fn params_clamp_degenerate_inputs() {
        let p = DpParams::new(0.0, -1.0);
        assert!(p.epsilon > 0.0);
        assert_eq!(p.sensitivity, 0.0);
        assert_eq!(p.laplace_scale(), 0.0);
        let mut r = rng();
        assert_eq!(laplace_noise(0.0, &mut r), 0.0);
    }
}
