//! Proof-of-Work spam protection (the Whisper / EIP-627 baseline).
//!
//! §I: PoW "is computationally expensive hence not suitable for
//! resource-constrained devices". Each message must carry a nonce such
//! that `SHA-256(payload ‖ nonce)` has `difficulty_bits` leading zero
//! bits; sealing costs an expected `2^difficulty_bits` hashes, while
//! verification costs one hash. The spam rate of an attacker is bounded
//! only by their hash rate — and so is an honest phone's publish rate,
//! which is the scheme's fatal flaw reproduced in experiment E6.

use wakurln_crypto::sha256::Sha256;
use wakurln_gossipsub::{Topic, ValidationResult, Validator};

/// A PoW-sealed message envelope.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PowEnvelope {
    /// The nonce making the hash meet the difficulty target.
    pub nonce: u64,
    /// Application payload.
    pub payload: Vec<u8>,
}

impl PowEnvelope {
    /// Serializes as `nonce:u64 | payload`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.payload.len());
        out.extend_from_slice(&self.nonce.to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses the wire form.
    ///
    /// Returns `None` when shorter than the nonce header.
    pub fn decode(bytes: &[u8]) -> Option<PowEnvelope> {
        if bytes.len() < 8 {
            return None;
        }
        let mut nonce = [0u8; 8];
        nonce.copy_from_slice(&bytes[..8]);
        Some(PowEnvelope {
            nonce: u64::from_le_bytes(nonce),
            payload: bytes[8..].to_vec(),
        })
    }
}

fn pow_hash(payload: &[u8], nonce: u64) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(payload);
    h.update(&nonce.to_le_bytes());
    h.finalize()
}

/// Counts leading zero bits of a digest.
fn leading_zero_bits(digest: &[u8; 32]) -> u32 {
    let mut bits = 0;
    for byte in digest {
        if *byte == 0 {
            bits += 8;
        } else {
            bits += byte.leading_zeros();
            break;
        }
    }
    bits
}

/// Seals `payload` at the given difficulty, returning the envelope and the
/// number of hash attempts spent (the real work an honest device pays).
pub fn seal(payload: &[u8], difficulty_bits: u32) -> (PowEnvelope, u64) {
    let mut nonce = 0u64;
    loop {
        if leading_zero_bits(&pow_hash(payload, nonce)) >= difficulty_bits {
            return (
                PowEnvelope {
                    nonce,
                    payload: payload.to_vec(),
                },
                nonce + 1,
            );
        }
        nonce += 1;
    }
}

/// Verifies an envelope against the difficulty (one hash).
pub fn verify(envelope: &PowEnvelope, difficulty_bits: u32) -> bool {
    leading_zero_bits(&pow_hash(&envelope.payload, envelope.nonce)) >= difficulty_bits
}

/// A device class, characterized by its hash rate — the axis along which
/// PoW discriminates (paper §I: resource-restricted devices).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeviceProfile {
    /// Human label for reports.
    pub name: &'static str,
    /// SHA-256 hashes per second this device sustains.
    pub hash_rate_hz: f64,
}

/// Device classes used by the E6/E9 comparisons.
pub const DEVICES: [DeviceProfile; 4] = [
    DeviceProfile {
        name: "iot-sensor",
        hash_rate_hz: 5_000.0,
    },
    DeviceProfile {
        name: "phone",
        hash_rate_hz: 200_000.0,
    },
    DeviceProfile {
        name: "laptop",
        hash_rate_hz: 5_000_000.0,
    },
    DeviceProfile {
        name: "gpu-rig",
        hash_rate_hz: 2_000_000_000.0,
    },
];

impl DeviceProfile {
    /// Expected seconds to seal one message at `difficulty_bits`.
    pub fn seconds_per_seal(&self, difficulty_bits: u32) -> f64 {
        (1u64 << difficulty_bits.min(63)) as f64 / self.hash_rate_hz
    }

    /// Messages this device can seal per `epoch_secs` window (the honest
    /// throughput PoW permits — and equally the spam throughput it fails
    /// to stop for powerful attackers).
    pub fn seals_per_epoch(&self, difficulty_bits: u32, epoch_secs: u64) -> f64 {
        epoch_secs as f64 / self.seconds_per_seal(difficulty_bits)
    }
}

/// GossipSub validator enforcing the PoW difficulty.
#[derive(Clone, Debug)]
pub struct PowValidator {
    /// Required leading zero bits.
    pub difficulty_bits: u32,
    /// Modeled cost of one verification hash, microseconds.
    pub verify_micros: u64,
    accepted: u64,
    rejected: u64,
}

impl PowValidator {
    /// Creates a validator for the given difficulty.
    pub fn new(difficulty_bits: u32) -> PowValidator {
        PowValidator {
            difficulty_bits,
            verify_micros: 5,
            accepted: 0,
            rejected: 0,
        }
    }

    /// Envelopes accepted so far.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Envelopes rejected so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }
}

impl Validator for PowValidator {
    fn validate(&mut self, _now_ms: u64, _topic: &Topic, data: &[u8]) -> ValidationResult {
        // peel off the WAKU envelope first, then check the seal
        let envelope = wakurln_relay::WakuMessage::decode(data)
            .ok()
            .and_then(|waku| PowEnvelope::decode(&waku.payload));
        match envelope {
            Some(env) if verify(&env, self.difficulty_bits) => {
                self.accepted += 1;
                ValidationResult::Accept
            }
            _ => {
                self.rejected += 1;
                ValidationResult::Reject
            }
        }
    }

    fn last_cost_micros(&self) -> u64 {
        self.verify_micros
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_verify_roundtrip() {
        let (env, attempts) = seal(b"hello", 8);
        assert!(verify(&env, 8));
        assert!(attempts >= 1);
        // stricter target not necessarily met
        assert!(!verify(&env, 30));
    }

    #[test]
    fn tampered_payload_fails() {
        let (mut env, _) = seal(b"hello", 10);
        env.payload[0] ^= 1;
        assert!(!verify(&env, 10));
    }

    #[test]
    fn envelope_codec_roundtrip() {
        let (env, _) = seal(b"data", 4);
        assert_eq!(PowEnvelope::decode(&env.encode()), Some(env));
        assert_eq!(PowEnvelope::decode(b"short"), None);
    }

    #[test]
    fn sealing_cost_grows_exponentially() {
        // average attempts over a few payloads to smooth variance
        let avg = |bits: u32| -> f64 {
            let total: u64 = (0..8u8).map(|i| seal(&[i, bits as u8], bits).1).sum();
            total as f64 / 8.0
        };
        let low = avg(4);
        let high = avg(10);
        // expected 16 vs 1024 attempts; allow generous slack
        assert!(high > low * 8.0, "low {low}, high {high}");
    }

    #[test]
    fn leading_zero_bits_edges() {
        assert_eq!(leading_zero_bits(&[0xff; 32]), 0);
        assert_eq!(leading_zero_bits(&[0x00; 32]), 256);
        let mut d = [0u8; 32];
        d[0] = 0x01;
        assert_eq!(leading_zero_bits(&d), 7);
    }

    #[test]
    fn device_profiles_discriminate() {
        // the paper's point: at a difficulty that barely slows a laptop,
        // an IoT sensor cannot publish at all within an epoch
        let difficulty = 22;
        let epoch = 10;
        let iot = DEVICES[0].seals_per_epoch(difficulty, epoch);
        let laptop = DEVICES[2].seals_per_epoch(difficulty, epoch);
        let gpu = DEVICES[3].seals_per_epoch(difficulty, epoch);
        assert!(iot < 0.1, "iot can seal {iot} msgs/epoch");
        assert!(laptop >= 1.0, "laptop only {laptop}");
        // and a GPU rig spams right through the same difficulty
        assert!(gpu > 1000.0, "gpu {gpu}");
    }

    #[test]
    fn validator_accepts_valid_rejects_invalid() {
        let wrap =
            |env: &PowEnvelope| wakurln_relay::WakuMessage::new("/app", env.encode()).encode();
        let mut v = PowValidator::new(8);
        let (env, _) = seal(b"ok", 8);
        assert_eq!(
            v.validate(0, &Topic::new("t"), &wrap(&env)),
            ValidationResult::Accept
        );
        let (weak, _) = seal(b"weak", 1);
        // weak seal almost certainly fails 8-bit target; if it got lucky,
        // adjust by checking verify first
        let expected = if verify(&weak, 8) {
            ValidationResult::Accept
        } else {
            ValidationResult::Reject
        };
        assert_eq!(v.validate(0, &Topic::new("t"), &wrap(&weak)), expected);
        assert_eq!(
            v.validate(0, &Topic::new("t"), b"junk"),
            ValidationResult::Reject
        );
        assert!(v.rejected() >= 1);
    }
}
