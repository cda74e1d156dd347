//! One module per class header. Every line that must fire is in
//! expected.txt; a line that is not must stay silent.

pub mod float_strict;
pub mod no_index;
pub mod panic_free;
pub mod replay;
