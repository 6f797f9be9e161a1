//! Fixture crate root: declaring the seeded modules makes the dram
//! fixture a *library* crate, which is what arms the dead-pub-item rule.
//! Never compiled — consumed by the `fixtures` integration test.

/// Seeded per-file violations.
pub mod seeded;
/// One half of the planted module cycle.
pub mod cyc_a;
/// Other half of the planted module cycle.
pub mod cyc_b;

/// Dead pub item: nothing in the fixture workspace references this.
pub fn orphan_api() -> u32 {
    41
}

/// A second dead pub item: an old entry point nothing calls any more.
pub fn legacy_entry() {}
