//! Seeded-violation fixture for the per-file rules. Never compiled —
//! consumed by the `fixtures` integration test.

use std::collections::HashMap;

pub fn undocumented_helper(x: Option<u32>) -> u32 {
    // hot-path-panic: unwrap in a dram src file.
    x.unwrap()
}

/// Documented, but panics.
pub fn boom() {
    panic!("seeded violation");
}

/// Wall-clock in sim code.
pub fn stamp() -> std::time::Instant {
    std::time::Instant::now()
}

/// Waived unwrap — must count as waived, not as a finding.
pub fn waived(x: Option<u32>) -> u32 {
    x.unwrap() // pccs-lint: allow(hot-path-panic)
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        let m: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        assert!(m.is_empty() || m.len().checked_add(1).unwrap() > 0);
    }
}
