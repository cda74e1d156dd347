pub fn apply(&self, cmd: Command) -> u64 {
    self.inner.lock().stage(&cmd)
}
