//! Support code for tests and examples; compiled only under
//! `cfg(test)` or the `test-support` feature, never into a release
//! node.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// A fresh, empty directory under the system temp directory that
/// nobody else can name — `dmp-<label>-<pid>-<n>`, `n` from a
/// process-wide counter — and that is removed when the handle drops,
/// also on a panic. `cargo test` runs tests on parallel threads, so two
/// tests must never derive the same directory from a shared label.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Create the directory. Panics if it cannot be created: there is
    /// no test to run without it.
    pub fn new(label: &str) -> ScratchDir {
        // Relaxed: the counter only hands out distinct numbers.
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("dmp-{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)
            .unwrap_or_else(|e| panic!("cannot create scratch directory {}: {e}", path.display()));
        ScratchDir { path }
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A path inside the directory.
    pub fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // A failure leaves a directory in the temp dir; nothing a test
        // could do about it, and Drop must not panic.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_label_gives_distinct_directories_removed_on_drop() {
        let (a, b) = (ScratchDir::new("scratch"), ScratchDir::new("scratch"));
        assert_ne!(a.path(), b.path());
        std::fs::write(a.join("f"), b"x").unwrap();
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
        assert!(b.path().is_dir());
    }
}
