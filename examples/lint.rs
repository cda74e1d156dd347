//! A live dmp-lint pass over a snippet: one lock held across an fsync
//! fires, and one carrying an annotated suppression does not.
//!
//! ```text
//! cargo run --example lint
//! ```
//!
//! The real pass runs as `cargo run -p dmp-lint -- --deny-all` (CI) and
//! as the `workspace_is_lint_clean` test under `cargo test`.

use dmp_lint::{lint_source, summarize};

fn main() {
    let src = "\
pub fn stage(&self, cmd: Command) -> std::io::Result<()> {
    let mut inner = self.inner.lock();
    inner.file.sync_all()?;
    Ok(())
}

pub fn apply(&self, cmd: Command) -> std::io::Result<()> {
    let mut inner = self.inner.lock();
    // dmp-lint: allow(lock-across-fsync) -- WAL ordering invariant: append (durable) and apply (visible) must be one critical section
    inner.journal.append(&cmd)?;
    Ok(())
}
";
    println!("=== live pass over a snippet ===\n");
    let findings = lint_source("crates/service/src/example.rs", src);
    for f in &findings {
        println!("  {}", f.render());
    }
    println!("\n{}", summarize(&findings));
    println!("\nThe unannotated sync_all fires; the annotated journal.append does not.");
}
