// crate: core
// want: pass
#[expect(clippy::unwrap_used, reason = "callers pass a non-empty slice")]
pub fn first(xs: &[u8]) -> u8 {
    *xs.first().unwrap()
}
