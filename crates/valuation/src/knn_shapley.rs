//! Exact, efficient Shapley values for K-nearest-neighbor utility —
//! "Efficient task-specific data valuation for nearest neighbor
//! algorithms" (Jia et al., VLDB'19; the paper's reference \[56\]).
//!
//! For the KNN utility
//! `v(S) = (1/K) Σ_{k ≤ min(K,|S|)} 1[ y_{α_k(S)} = y_test ]`
//! (fraction of the K nearest points in `S` that carry the test label),
//! the Shapley value of every training point is computable **exactly** in
//! `O(n log n)` per test point via the recursion
//!
//! ```text
//! s_{α_N}  = 1[y_{α_N} = y] / N
//! s_{α_i}  = s_{α_{i+1}} + (1[y_{α_i}=y] − 1[y_{α_{i+1}}=y]) / K
//!            · min(K, i) / i
//! ```
//!
//! where `α_1..α_N` sorts training points by distance to the test point.
//! This is the "more computationally efficient" alternative family the
//! paper's §3.2.3 asks for, and E4 benchmarks it against enumeration.

/// One labeled training point in feature space.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledPoint {
    /// Feature vector.
    pub x: Vec<f64>,
    /// Class label.
    pub y: i64,
}

impl LabeledPoint {
    /// Construct a point.
    pub fn new(x: Vec<f64>, y: i64) -> Self {
        LabeledPoint { x, y }
    }
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(p, q)| (p - q) * (p - q)).sum()
}

/// Exact Shapley values of `train` points for the KNN utility on a single
/// test point, via the Jia et al. recursion.
pub fn knn_shapley_single(
    train: &[LabeledPoint],
    test_x: &[f64],
    test_y: i64,
    k: usize,
) -> Vec<f64> {
    let n = train.len();
    if n == 0 {
        return Vec::new();
    }
    let k = k.max(1);
    // α: indices sorted by distance ascending (ties by index: stable).
    let mut alpha: Vec<usize> = (0..n).collect();
    alpha.sort_by(|&a, &b| {
        sq_dist(&train[a].x, test_x)
            .total_cmp(&sq_dist(&train[b].x, test_x))
            .then_with(|| a.cmp(&b))
    });

    let match_y = |i: usize| -> f64 {
        if train[i].y == test_y {
            1.0
        } else {
            0.0
        }
    };

    let mut s = vec![0.0f64; n];
    // Farthest point.
    s[alpha[n - 1]] = match_y(alpha[n - 1]) / n as f64;
    // Backward recursion.
    for pos in (0..n - 1).rev() {
        let i = pos + 1; // 1-based rank of alpha[pos]
        let cur = alpha[pos];
        let next = alpha[pos + 1];
        s[cur] = s[next] + (match_y(cur) - match_y(next)) / k as f64 * (k.min(i) as f64 / i as f64);
    }
    s
}

/// Shapley values averaged over a test set (the utility of the full test
/// set is the mean per-point utility, and Shapley is linear).
pub fn knn_shapley(train: &[LabeledPoint], test: &[LabeledPoint], k: usize) -> Vec<f64> {
    let n = train.len();
    let mut total = vec![0.0f64; n];
    if test.is_empty() || n == 0 {
        return total;
    }
    for t in test {
        let s = knn_shapley_single(train, &t.x, t.y, k);
        for (acc, v) in total.iter_mut().zip(s) {
            *acc += v;
        }
    }
    for v in &mut total {
        *v /= test.len() as f64;
    }
    total
}

/// The KNN utility itself, exposed so tests/benches can cross-check the
/// closed form against generic enumeration: `v(S)` = fraction of the K
/// nearest members of `S` whose label matches, averaged over tests.
pub fn knn_utility(
    train: &[LabeledPoint],
    members: &[usize],
    test: &[LabeledPoint],
    k: usize,
) -> f64 {
    if members.is_empty() || test.is_empty() {
        return 0.0;
    }
    let k = k.max(1);
    let mut total = 0.0;
    for t in test {
        let mut order: Vec<usize> = members.to_vec();
        order.sort_by(|&a, &b| {
            sq_dist(&train[a].x, &t.x)
                .total_cmp(&sq_dist(&train[b].x, &t.x))
                .then_with(|| a.cmp(&b))
        });
        let kk = k.min(order.len());
        let hits = order[..kk].iter().filter(|&&i| train[i].y == t.y).count();
        total += hits as f64 / k as f64;
    }
    total / test.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapley::{exact_shapley, CharacteristicFn};

    fn small_train() -> Vec<LabeledPoint> {
        vec![
            LabeledPoint::new(vec![0.0], 0),
            LabeledPoint::new(vec![1.0], 1),
            LabeledPoint::new(vec![2.0], 0),
            LabeledPoint::new(vec![3.0], 1),
            LabeledPoint::new(vec![4.0], 0),
            LabeledPoint::new(vec![5.0], 1),
        ]
    }

    /// The closed form must match brute-force Shapley over the KNN
    /// utility — the strongest possible correctness check.
    #[test]
    fn closed_form_matches_enumeration() {
        let train = small_train();
        let test = vec![
            LabeledPoint::new(vec![0.2], 0),
            LabeledPoint::new(vec![2.8], 1),
        ];
        for k in [1usize, 3] {
            let train_cl = train.clone();
            let test_cl = test.clone();
            let game = CharacteristicFn::new(train.len(), move |mask| {
                let members: Vec<usize> = (0..train_cl.len())
                    .filter(|i| mask & (1 << i) != 0)
                    .collect();
                knn_utility(&train_cl, &members, &test_cl, k)
            });
            let brute = exact_shapley(&game);
            let fast = knn_shapley(&train, &test, k);
            for (b, f) in brute.iter().zip(&fast) {
                assert!(
                    (b - f).abs() < 1e-9,
                    "k={k}: brute {brute:?} vs fast {fast:?}"
                );
            }
        }
    }

    #[test]
    fn efficiency_holds() {
        let train = small_train();
        let test = vec![LabeledPoint::new(vec![1.1], 1)];
        let s = knn_shapley(&train, &test, 3);
        let total: f64 = s.iter().sum();
        let all: Vec<usize> = (0..train.len()).collect();
        let vn = knn_utility(&train, &all, &test, 3);
        assert!((total - vn).abs() < 1e-9);
    }

    #[test]
    fn nearest_matching_point_gets_most_credit() {
        let train = small_train();
        let test = vec![LabeledPoint::new(vec![0.1], 0)];
        let s = knn_shapley(&train, &test, 1);
        let best = s
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best, 0, "shapley {s:?}");
    }

    #[test]
    fn wrong_label_neighbors_get_nonpositive_credit() {
        let train = small_train();
        let test = vec![LabeledPoint::new(vec![0.9], 0)];
        let s = knn_shapley(&train, &test, 1);
        // point 1 (x=1.0, label 1) is nearest but mislabeled for this test
        assert!(s[1] <= 1e-12, "{s:?}");
    }

    #[test]
    fn empty_inputs() {
        assert!(knn_shapley(&[], &[], 1).is_empty());
        let train = small_train();
        assert_eq!(knn_shapley(&train, &[], 1), vec![0.0; 6]);
    }

    #[test]
    fn utility_of_full_set_is_knn_accuracy_for_k1() {
        let train = small_train();
        let test = vec![
            LabeledPoint::new(vec![0.1], 0), // NN = pt0 label 0: hit
            LabeledPoint::new(vec![0.9], 0), // NN = pt1 label 1: miss
        ];
        let all: Vec<usize> = (0..train.len()).collect();
        let u = knn_utility(&train, &all, &test, 1);
        assert!((u - 0.5).abs() < 1e-12);
    }

    #[test]
    fn scales_to_thousands_quickly() {
        // Smoke: n=2000, 20 tests; must be near-instant (O(n log n) each).
        let train: Vec<LabeledPoint> = (0..2000)
            .map(|i| LabeledPoint::new(vec![i as f64 * 0.01], (i % 2) as i64))
            .collect();
        let test: Vec<LabeledPoint> = (0..20)
            .map(|i| LabeledPoint::new(vec![i as f64], (i % 2) as i64))
            .collect();
        let s = knn_shapley(&train, &test, 5);
        assert_eq!(s.len(), 2000);
        let total: f64 = s.iter().sum();
        assert!(total.is_finite());
    }
}
