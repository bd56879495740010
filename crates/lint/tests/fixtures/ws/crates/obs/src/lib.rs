//! The event schema, in the crate O2 reads it from.

/// O2: `Used` is emitted by the good crate; `NeverEmitted` has no
/// emitter anywhere outside this crate.
pub enum Event {
    /// Emitted by the good crate.
    Used(u64),
    /// Dead schema entry.
    NeverEmitted,
}
