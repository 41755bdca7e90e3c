// crate: core
// want: clippy::panic
pub fn first(xs: &[u8]) -> u8 {
    match xs.first() {
        Some(x) => *x,
        None => panic!("empty"),
    }
}
