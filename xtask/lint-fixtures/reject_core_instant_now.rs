// crate: core
// want: clippy::disallowed_methods
pub fn stamp() -> std::time::Instant {
    std::time::Instant::now()
}
