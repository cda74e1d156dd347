pub fn checkpoint(&self, seq: u64) -> std::io::Result<()> {
    let mut inner = self.inner.lock();
    let (path, _digest) = snapshot::write_image(&self.dir, seq, &self.image())?;
    inner.journal.truncate_prefix(seq)?;
    Ok(())
}
