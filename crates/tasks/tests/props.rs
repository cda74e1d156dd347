//! Property tests for tasks: satisfaction is always a valid probability,
//! evaluation is deterministic, and the generators are well-formed.

use proptest::prelude::*;

use dmp_relation::{DataType, RelationBuilder, Value};
use dmp_tasks::classifier::ClassifierTask;
use dmp_tasks::query_task::QueryCompletenessTask;
use dmp_tasks::regression::RegressionTask;
use dmp_tasks::report::CoverageTask;
use dmp_tasks::synth::{gaussian_blobs, linear_data};
use dmp_tasks::Task;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every task's satisfaction is in [0, 1] on arbitrary labeled data.
    #[test]
    fn satisfaction_is_probability(
        rows in prop::collection::vec((0i64..2, -10.0f64..10.0, -10.0f64..10.0), 0..60),
    ) {
        let mut b = RelationBuilder::new("t")
            .column("label", DataType::Int)
            .column("x", DataType::Float)
            .column("y", DataType::Float);
        for (l, x, y) in rows {
            b = b.row(vec![Value::Int(l), Value::Float(x), Value::Float(y)]);
        }
        let rel = b.build().unwrap();
        let tasks: Vec<Box<dyn Task>> = vec![
            Box::new(ClassifierTask::logistic("label")),
            Box::new(RegressionTask::new("x")),
            Box::new(QueryCompletenessTask::new("label", 2)),
            Box::new(CoverageTask::new(["label", "x", "zzz"])),
        ];
        for task in tasks {
            let s = task.evaluate(&rel).value();
            prop_assert!((0.0..=1.0).contains(&s), "{} -> {s}", task.name());
        }
    }

    /// Evaluation is deterministic (audit requirement of §3.2.2.2).
    #[test]
    fn evaluation_is_deterministic(n in 20usize..200, sep in 0.1f64..3.0, seed in 0u64..100) {
        let rel = gaussian_blobs(n, 2, sep, seed);
        let task = ClassifierTask::logistic("label");
        prop_assert_eq!(task.evaluate(&rel).value(), task.evaluate(&rel).value());
    }

    /// More separation never makes the (deterministic) classifier much
    /// worse: accuracy at sep+2 ≥ accuracy at sep − 0.15 slack.
    #[test]
    fn separation_helps_classification(seed in 0u64..50) {
        let hard = gaussian_blobs(300, 2, 0.3, seed);
        let easy = gaussian_blobs(300, 2, 2.8, seed);
        let task = ClassifierTask::logistic("label");
        let (h, e) = (task.evaluate(&hard).value(), task.evaluate(&easy).value());
        prop_assert!(e >= h - 0.15, "easy {e} vs hard {h}");
    }

    /// linear_data's target is reconstructible: R² near 1 at low noise.
    #[test]
    fn linear_generator_is_learnable(seed in 0u64..50, d in 1usize..5) {
        let rel = linear_data(200, d, 0.01, seed);
        let r2 = RegressionTask::new("target").evaluate(&rel).value();
        prop_assert!(r2 > 0.9, "R² {r2}");
    }

    /// Coverage task satisfaction scales with present attributes.
    #[test]
    fn coverage_counts_attributes(present in 0usize..4) {
        let all = ["a", "b", "c", "d"];
        let mut b = RelationBuilder::new("t");
        for col in all.iter().take(present.max(1)) {
            b = b.column(*col, DataType::Int);
        }
        b = b.row(vec![Value::Int(1); present.max(1)]);
        let rel = b.build().unwrap();
        let s = CoverageTask::new(all).evaluate(&rel).value();
        prop_assert!((s - present.max(1) as f64 / 4.0).abs() < 1e-9);
    }
}
