//! Wire codec for RLN signals carried inside [`WakuMessage`] payloads.
//!
//! [`WakuMessage`]: wakurln_relay::WakuMessage
//!
//! Layout (little-endian lengths, fixed-size field elements):
//!
//! ```text
//! epoch:u64 | root:32 | internal_nullifier:32 | x:32 | y:32
//! | proof_elements:4×32 | proof_binding:32 | msg_len:u32 | message
//! ```
//!
//! The external nullifier is carried as the raw `epoch` number; the field
//! element the proof is bound to is recomputed as `Fr::from_u64(epoch)`,
//! so a sender cannot claim one epoch in the envelope and prove another.

use wakurln_crypto::field::Fr;
use wakurln_crypto::shamir::Share;
use wakurln_rln::Signal;
use wakurln_zksnark::Proof;

/// Errors from [`decode_signal`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SignalCodecError {
    /// Buffer too short for the fixed header or announced message length.
    Truncated,
    /// A 32-byte field encoding was not a reduced field element.
    InvalidFieldElement,
    /// Trailing bytes after the message.
    TrailingBytes,
}

impl std::fmt::Display for SignalCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SignalCodecError::Truncated => write!(f, "signal truncated"),
            SignalCodecError::InvalidFieldElement => {
                write!(f, "non-canonical field element in signal")
            }
            SignalCodecError::TrailingBytes => write!(f, "trailing bytes after signal"),
        }
    }
}

impl std::error::Error for SignalCodecError {}

/// A decoded signal plus the raw epoch number from the envelope.
#[derive(Clone, Debug, PartialEq)]
pub struct WireSignal {
    /// The epoch number claimed by the sender.
    pub epoch: u64,
    /// The reassembled signal (external nullifier = `Fr::from_u64(epoch)`).
    pub signal: Signal,
}

/// Serializes a signal for transport. `epoch` must be the epoch number the
/// signal's external nullifier was derived from.
pub fn encode_signal(epoch: u64, signal: &Signal) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 32 * 9 + 4 + signal.message.len());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&signal.root.to_bytes_le());
    out.extend_from_slice(&signal.internal_nullifier.to_bytes_le());
    out.extend_from_slice(&signal.share.x.to_bytes_le());
    out.extend_from_slice(&signal.share.y.to_bytes_le());
    for word in &signal.proof.elements {
        out.extend_from_slice(word);
    }
    out.extend_from_slice(&signal.proof.binding);
    out.extend_from_slice(&(signal.message.len() as u32).to_le_bytes());
    out.extend_from_slice(&signal.message);
    out
}

fn take<'a>(bytes: &mut &'a [u8], n: usize) -> Result<&'a [u8], SignalCodecError> {
    if bytes.len() < n {
        return Err(SignalCodecError::Truncated);
    }
    let (head, rest) = bytes.split_at(n);
    *bytes = rest;
    Ok(head)
}

fn take_fr(bytes: &mut &[u8]) -> Result<Fr, SignalCodecError> {
    let raw = take(bytes, 32)?;
    let mut arr = [0u8; 32];
    arr.copy_from_slice(raw);
    Fr::from_bytes_le(&arr).ok_or(SignalCodecError::InvalidFieldElement)
}

/// Parses a signal produced by [`encode_signal`].
///
/// # Errors
///
/// Returns a [`SignalCodecError`] on any malformed input; never panics.
pub fn decode_signal(mut bytes: &[u8]) -> Result<WireSignal, SignalCodecError> {
    let epoch_raw = take(&mut bytes, 8)?;
    let mut epoch_arr = [0u8; 8];
    epoch_arr.copy_from_slice(epoch_raw);
    let epoch = u64::from_le_bytes(epoch_arr);

    let root = take_fr(&mut bytes)?;
    let internal_nullifier = take_fr(&mut bytes)?;
    let x = take_fr(&mut bytes)?;
    let y = take_fr(&mut bytes)?;

    let mut elements = [[0u8; 32]; 4];
    for word in elements.iter_mut() {
        word.copy_from_slice(take(&mut bytes, 32)?);
    }
    let mut binding = [0u8; 32];
    binding.copy_from_slice(take(&mut bytes, 32)?);

    let len_raw = take(&mut bytes, 4)?;
    let mut len_arr = [0u8; 4];
    len_arr.copy_from_slice(len_raw);
    let msg_len = u32::from_le_bytes(len_arr) as usize;
    let message = take(&mut bytes, msg_len)?.to_vec();
    if !bytes.is_empty() {
        return Err(SignalCodecError::TrailingBytes);
    }

    Ok(WireSignal {
        epoch,
        signal: Signal {
            message,
            external_nullifier: Fr::from_u64(epoch),
            internal_nullifier,
            share: Share { x, y },
            root,
            proof: Proof { elements, binding },
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wakurln_rln::{create_signal, Identity, SharedGroup};
    use wakurln_zksnark::{RlnCircuit, SimSnark};

    fn sample_signal(epoch: u64, msg: &[u8]) -> Signal {
        let mut rng = StdRng::seed_from_u64(31);
        let depth = 10;
        let (pk, _) = SimSnark::setup(RlnCircuit::new(depth), &mut rng);
        let mut group = SharedGroup::new(depth).unwrap();
        let id = Identity::random(&mut rng);
        let index = group.register_batch(&[id.commitment()]).unwrap().0.start;
        create_signal(
            &id,
            &group.membership_proof(index).unwrap(),
            group.root(),
            &pk,
            Fr::from_u64(epoch),
            msg,
            &mut rng,
        )
        .unwrap()
    }

    #[test]
    fn roundtrip() {
        let sig = sample_signal(77, b"round trip me");
        let encoded = encode_signal(77, &sig);
        let wire = decode_signal(&encoded).unwrap();
        assert_eq!(wire.epoch, 77);
        assert_eq!(wire.signal, sig);
    }

    #[test]
    fn epoch_field_binding_is_recomputed() {
        let sig = sample_signal(77, b"x");
        let mut encoded = encode_signal(77, &sig);
        // attacker rewrites the epoch number in the envelope
        encoded[0] = 78;
        let wire = decode_signal(&encoded).unwrap();
        // the decoder derives the external nullifier from the envelope
        // epoch, so the proof (bound to epoch 77) will no longer verify
        assert_eq!(wire.signal.external_nullifier, Fr::from_u64(78));
        assert_ne!(wire.signal.external_nullifier, sig.external_nullifier);
    }

    #[test]
    fn truncation_rejected_at_every_cut() {
        let encoded = encode_signal(5, &sample_signal(5, b"abc"));
        for cut in 0..encoded.len() {
            assert!(decode_signal(&encoded[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut encoded = encode_signal(5, &sample_signal(5, b"abc"));
        encoded.push(0);
        assert_eq!(
            decode_signal(&encoded),
            Err(SignalCodecError::TrailingBytes)
        );
    }

    #[test]
    fn non_canonical_field_rejected() {
        let mut encoded = encode_signal(5, &sample_signal(5, b"abc"));
        // overwrite the root with 0xFF…FF (≥ modulus)
        for b in encoded[8..40].iter_mut() {
            *b = 0xff;
        }
        assert_eq!(
            decode_signal(&encoded),
            Err(SignalCodecError::InvalidFieldElement)
        );
    }

    proptest! {
        #[test]
        fn prop_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = decode_signal(&bytes);
        }
    }
}
