// dmp-lint: allow(lock-order)
pub fn a() {}
// dmp-lint: allow(no-such-rule) -- the rule id is misspelled
pub fn b() {}
// dmp-lint: deny(lock-order) -- only allow(...) exists
pub fn c() {}
