// crate: core
// want: unfulfilled_lint_expectations
#[expect(clippy::unwrap_used, reason = "nothing here unwraps")]
pub fn first(xs: &[u8]) -> u8 {
    xs.first().copied().unwrap_or(0)
}
