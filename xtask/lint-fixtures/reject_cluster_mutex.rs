// crate: cluster
// want: clippy::disallowed_types
pub struct Shared {
    pub count: std::sync::Mutex<u64>,
}
