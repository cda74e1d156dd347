//! The paper's tables, pinned: `experiments` must print exactly
//! `expected/experiments.txt`. Every table is a pure function of its
//! seeds (no wall-clock column, any thread count), so a change that
//! moves a number in any of F1–F3 / E1–E16 fails here and shows up as a
//! reviewed diff of that file. To accept a deliberate change, regenerate
//! it:
//!
//! ```text
//! cargo run -q --release -p dmp-bench --bin experiments > crates/bench/tests/expected/experiments.txt
//! ```

use std::process::Command;

#[test]
fn every_table_prints_exactly_the_pinned_output() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .output()
        .expect("run the experiments binary");
    assert!(
        out.status.success(),
        "experiments exited with {}",
        out.status
    );
    let got = String::from_utf8(out.stdout).expect("experiments prints UTF-8");
    let want = include_str!("expected/experiments.txt");
    if let Some((n, (g, w))) = got
        .lines()
        .zip(want.lines())
        .enumerate()
        .find(|(_, (g, w))| g != w)
    {
        panic!("line {}: printed\n  {g}\nexpected\n  {w}", n + 1);
    }
    assert_eq!(got, want, "every common line matches; the lengths differ");
}
