// dmp-lint: allow(lock-across-fsync)
pub fn a() {}
// dmp-lint: allow(no-such-rule) -- the rule id is misspelled
pub fn b() {}
// dmp-lint: deny(lock-across-fsync) -- only allow(...) exists
pub fn c() {}
