// crate: core
// want: clippy::todo
pub fn first(_xs: &[u8]) -> u8 {
    todo!()
}
