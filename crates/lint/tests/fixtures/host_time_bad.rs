// Fixture: host clocks / ambient entropy in deterministic code must fire.

pub fn stamp_ms() -> u128 {
    let t = std::time::Instant::now(); //~ host-time
    t.elapsed().as_millis()
}

pub fn wall() -> std::time::SystemTime { //~ host-time
    std::time::SystemTime::now() //~ host-time
}

pub fn roll() -> u64 {
    let mut rng = rand::thread_rng(); //~ host-time
    rng.next_u64()
}

pub fn who_am_i() -> String {
    format!("{:?}", std::thread::current().id()) //~ host-time
}

pub fn fast_path() -> bool {
    std::arch::is_x86_feature_detected!("sha") //~ host-time
}
