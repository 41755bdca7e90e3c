// crate: core
// want: clippy::allow_attributes_without_reason
#[allow(clippy::unwrap_used)]
pub fn first(xs: &[u8]) -> u8 {
    *xs.first().unwrap()
}
