//! §III's attacks against the full testbed: a member flooding one epoch
//! with double-signals, and a member replaying signals for epochs outside
//! the `Thr` window.

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use crate::core::{Testbed, TestbedConfig};

    fn testbed() -> Testbed {
        let mut tb = Testbed::build(TestbedConfig {
            n_peers: 8,
            tree_depth: 10,
            degree: 4,
            seed: 5,
            ..Default::default()
        });
        tb.run(8_000); // mesh formation
        tb
    }

    #[test]
    fn double_signal_burst_gets_attacker_slashed() {
        let mut tb = testbed();
        // four distinct messages inside one epoch, past the local rate limiter
        let payloads: Vec<Vec<u8>> = (0..4)
            .map(|i| format!("spam-burst-{i}").into_bytes())
            .collect();
        for payload in &payloads {
            tb.publish_spam(0, payload)
                .expect("attacker is still a member while bursting");
        }
        // let gossip, detection, slashing and sync play out
        tb.run(40_000);
        let half = tb.config().n_peers / 2;
        let delivered_majority = payloads
            .iter()
            .filter(|p| tb.delivery_count(p, 0) >= half)
            .count();
        assert!(tb.total_spam_detections() >= 1, "no detection");
        assert!(!tb.is_member(0), "attacker kept membership");
        // the flood did not achieve majority delivery for most messages
        assert!(
            delivered_majority <= 1,
            "spam flooded through: {delivered_majority} of 4"
        );
    }

    #[test]
    fn replay_outside_window_blocked_inside_allowed() {
        let mut tb = testbed();
        // Thr = 2 with default scheme (T = 10 s, D = 20 s)
        let half = tb.config().n_peers / 2;
        let mut delivered = HashMap::new();
        for offset in [-10i64, -1, 0] {
            let payload = format!("replay-{offset}").into_bytes();
            tb.publish_with_epoch_offset(1, &payload, offset)
                .expect("attacker can always send");
            tb.run(15_000);
            delivered.insert(offset, tb.delivery_count(&payload, 1) >= half);
        }
        assert!(!delivered[&-10], "deep replay delivered");
        assert!(delivered[&0], "current epoch blocked");
        assert!(delivered[&-1], "within-window epoch blocked");
    }
}
