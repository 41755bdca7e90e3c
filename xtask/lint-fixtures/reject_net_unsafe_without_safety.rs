// crate: net
// want: clippy::undocumented_unsafe_blocks
#[expect(unsafe_code, reason = "the fixture's one unsafe block")]
pub fn read(x: &u8) -> u8 {
    unsafe { std::ptr::read(x) }
}
