// crate: cluster
// want: clippy::disallowed_methods
pub fn bump(n: &std::sync::Mutex<u64>) {
    if let Ok(mut n) = n.lock() {
        *n += 1;
    }
}
