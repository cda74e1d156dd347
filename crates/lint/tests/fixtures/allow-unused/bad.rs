// dmp-lint: allow(lock-across-fsync) -- stale: the fsync this covered moved out of the lock
pub fn apply(&self, cmd: Command) -> u64 {
    self.inner.lock().stage(&cmd)
}
