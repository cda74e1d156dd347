pub fn apply_durable(&self, cmd: Command) -> std::io::Result<()> {
    let mut inner = self.inner.lock();
    // dmp-lint: allow(lock-across-fsync) -- WAL ordering invariant: append (durable) and apply (visible) must be one critical section
    inner.journal.append(&cmd)?;
    Ok(())
}
