//! Epochs: the external nullifier of WAKU-RLN-RELAY.
//!
//! §III: "We use epoch as the external nullifier. epoch is defined as the
//! number of T seconds that elapsed since the Unix epoch. Peers monitor
//! the current epoch locally and are allowed to publish one message per
//! epoch." Routing peers drop messages whose epoch differs from their
//! local epoch by more than `Thr = D / T`, where `D` is the maximum
//! network delay — this stops a fresh registrant from spamming all past
//! epochs at once.

use wakurln_crypto::field::Fr;

/// The epoch scheme: converts simulated wall-clock time to epoch numbers
/// and field elements, and performs the `Thr` window check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpochScheme {
    /// Epoch length `T`, in seconds.
    pub epoch_secs: u64,
    /// Maximum assumed network delay `D`, in milliseconds.
    pub max_delay_ms: u64,
    /// Offset added to simulated time to produce UNIX-like timestamps
    /// (keeps epoch numbers realistic; value is arbitrary).
    pub unix_base_secs: u64,
}

impl Default for EpochScheme {
    fn default() -> EpochScheme {
        EpochScheme {
            epoch_secs: 10,
            max_delay_ms: 20_000,
            unix_base_secs: 1_700_000_000,
        }
    }
}

impl EpochScheme {
    /// Creates a scheme with the given `T` (seconds) and `D`
    /// (milliseconds).
    ///
    /// # Panics
    ///
    /// Panics if `epoch_secs` is zero.
    pub fn new(epoch_secs: u64, max_delay_ms: u64) -> EpochScheme {
        assert!(epoch_secs > 0, "epoch length must be positive");
        EpochScheme {
            epoch_secs,
            max_delay_ms,
            ..EpochScheme::default()
        }
    }

    /// The epoch number at simulated time `now_ms`.
    pub fn epoch_at_ms(&self, now_ms: u64) -> u64 {
        (self.unix_base_secs + now_ms / 1000) / self.epoch_secs
    }

    /// The validation threshold `Thr = ceil(D / T)` in epochs.
    pub fn threshold(&self) -> u64 {
        self.max_delay_ms.div_ceil(self.epoch_secs * 1000)
    }

    /// The external-nullifier field element for an epoch number.
    pub fn to_field(&self, epoch: u64) -> Fr {
        Fr::from_u64(epoch)
    }

    /// Whether a message epoch is acceptable at local epoch `local`
    /// (§III: `|local − message| ≤ Thr`).
    pub fn within_window(&self, local: u64, message: u64) -> bool {
        local.abs_diff(message) <= self.threshold()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn epoch_advances_every_t_seconds() {
        let s = EpochScheme::new(10, 20_000);
        let e0 = s.epoch_at_ms(0);
        assert_eq!(s.epoch_at_ms(9_999), e0);
        assert_eq!(s.epoch_at_ms(10_000), e0 + 1);
        assert_eq!(s.epoch_at_ms(25_000), e0 + 2);
    }

    #[test]
    fn threshold_is_ceil_d_over_t() {
        assert_eq!(EpochScheme::new(10, 20_000).threshold(), 2);
        assert_eq!(EpochScheme::new(10, 20_001).threshold(), 3);
        assert_eq!(EpochScheme::new(10, 1).threshold(), 1);
        assert_eq!(EpochScheme::new(1, 500).threshold(), 1);
    }

    #[test]
    fn window_check_is_symmetric() {
        let s = EpochScheme::new(10, 20_000); // Thr = 2
        assert!(s.within_window(100, 100));
        assert!(s.within_window(100, 98));
        assert!(s.within_window(100, 102));
        assert!(!s.within_window(100, 97)); // replay from the past
        assert!(!s.within_window(100, 103)); // premature future epoch
    }

    #[test]
    fn field_encoding_is_injective_on_epochs() {
        let s = EpochScheme::default();
        assert_ne!(s.to_field(1), s.to_field(2));
    }

    #[test]
    #[should_panic(expected = "epoch length must be positive")]
    fn zero_epoch_rejected() {
        let _ = EpochScheme::new(0, 1000);
    }

    proptest! {
        #[test]
        fn prop_epoch_monotone(t1 in 0u64..10_000_000, dt in 0u64..10_000_000) {
            let s = EpochScheme::default();
            prop_assert!(s.epoch_at_ms(t1 + dt) >= s.epoch_at_ms(t1));
        }

        #[test]
        fn prop_one_epoch_per_period(start in 0u64..1_000_000) {
            let s = EpochScheme::new(10, 0);
            let period = 10_000;
            prop_assert_eq!(s.epoch_at_ms(start) + 1, s.epoch_at_ms(start + period));
        }
    }
}
