pub fn trace_body(&self) -> String {
    // dmp-lint: allow(lock-reactor-inline) -- held for a snapshot copy only; writers never block holding it
    let ring = self.ring.lock();
    ring.snapshot()
}
