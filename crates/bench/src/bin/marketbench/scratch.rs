//! Process-unique scratch directories with RAII clean-up.
//!
//! Every workload repetition gets a directory nobody else can name:
//! `<root>/<label>-<pid>-<n>` with `n` from a process-wide atomic
//! counter, so two repetitions (or two benchmark processes sharing a
//! root) never touch each other's journals. The directory is removed
//! when the handle drops, also on an early return or a panic.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// A directory that exists for as long as this handle does.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Create a fresh, empty directory under `root`.
    pub fn new(root: &Path, label: &str) -> std::io::Result<ScratchDir> {
        // Relaxed: the counter only hands out distinct numbers.
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = root.join(format!("{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Nothing useful to do with a failure here; the root is a
        // build-output directory the next run may reuse regardless.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Total size in bytes of the regular files directly inside `dir` (a
/// node directory is flat: journal, snapshots, `node.meta`).
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directories_are_distinct_and_removed_on_drop() {
        let root = std::env::temp_dir().join(format!("marketbench-test-{}", std::process::id()));
        let (a, b) = (
            ScratchDir::new(&root, "x").unwrap(),
            ScratchDir::new(&root, "x").unwrap(),
        );
        assert_ne!(a.path(), b.path());
        std::fs::write(a.path().join("f"), b"12345").unwrap();
        assert_eq!(dir_bytes(a.path()).unwrap(), 5);
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
        assert!(b.path().exists());
        drop(b);
        let _ = std::fs::remove_dir(&root);
    }
}
