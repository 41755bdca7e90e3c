// crate: core
// want: clippy::expect_used
pub fn first(xs: &[u8]) -> u8 {
    *xs.first().expect("non-empty")
}
