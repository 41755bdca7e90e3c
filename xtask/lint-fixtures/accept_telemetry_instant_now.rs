// crate: telemetry
// want: pass
pub fn stamp() -> std::time::Instant {
    std::time::Instant::now()
}
