// Fixture: a justified host-side measurement, suppressed by markers.

pub struct PhaseTimings {
    /// Milliseconds spent in dispatch, host-side only.
    pub dispatch_ms: u128,
}

pub fn measure<F: FnOnce()>(f: F) -> u128 {
    // lint:allow(host-time, reason = "wall-clock accumulator feeding host-side diagnostics only; never read by simulation state")
    let start = std::time::Instant::now();
    f();
    start.elapsed().as_millis()
}
