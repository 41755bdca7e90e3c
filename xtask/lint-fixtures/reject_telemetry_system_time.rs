// crate: telemetry
// want: clippy::disallowed_types
pub fn since_epoch() -> u64 {
    let now = std::time::SystemTime::now();
    now.duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}
