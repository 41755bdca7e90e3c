// crate: core
// want: clippy::unwrap_used
pub fn first(xs: &[u8]) -> u8 {
    *xs.first().unwrap()
}
