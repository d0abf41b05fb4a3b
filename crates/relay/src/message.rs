//! The anonymized WAKU message envelope and its wire codec.

/// A WAKU-RELAY message.
///
/// Deliberately minimal: a payload and a *content topic* (application-level
/// routing key within a pub/sub topic). There is **no sender identifier,
//  no signature, and no per-sender sequence number** — this is WAKU-RELAY's
/// anonymization of protocol messages (§I: sender anonymity "is protected
/// by anonymizing protocol messages i.e., removing personally identifiable
/// information (PII) that binds a message to its owner").
///
/// The `timestamp` is coarse (seconds) and optional; publishers that care
/// about timing correlation can omit it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WakuMessage {
    /// Application payload (for WAKU-RLN-RELAY: an encoded RLN signal).
    pub payload: Vec<u8>,
    /// Application content topic, e.g. `"/app/1/chat/proto"`.
    pub content_topic: String,
    /// Optional coarse timestamp (UNIX seconds).
    pub timestamp: Option<u64>,
}

/// Errors from [`WakuMessage::decode`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the announced field length.
    Truncated,
    /// The content topic is not valid UTF-8.
    BadTopic,
    /// Trailing bytes after the message.
    TrailingBytes,
    /// A length field exceeds sane bounds.
    LengthOverflow,
    /// The timestamp flag is neither 0 (absent) nor 1 (present). Only
    /// those two are accepted, so every envelope has exactly one encoding
    /// and a relay cannot mint fresh gossip ids for the same content.
    BadTimestampFlag(u8),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "message truncated"),
            CodecError::BadTopic => write!(f, "content topic is not valid utf-8"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after message"),
            CodecError::LengthOverflow => write!(f, "length field exceeds limits"),
            CodecError::BadTimestampFlag(flag) => write!(f, "timestamp flag {flag} is not 0 or 1"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Maximum accepted field length (16 MiB) — guards decoders against
/// adversarial length fields.
const MAX_FIELD: usize = 16 * 1024 * 1024;

impl WakuMessage {
    /// Creates a message without a timestamp.
    pub fn new(content_topic: impl Into<String>, payload: Vec<u8>) -> WakuMessage {
        WakuMessage {
            payload,
            content_topic: content_topic.into(),
            timestamp: None,
        }
    }

    /// Serializes to the wire format:
    /// `topic_len:u32 | topic | ts_flag:u8 [| ts:u64] | payload_len:u32 | payload`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.content_topic.len() + self.payload.len());
        out.extend_from_slice(&(self.content_topic.len() as u32).to_le_bytes());
        out.extend_from_slice(self.content_topic.as_bytes());
        match self.timestamp {
            Some(ts) => {
                out.push(1);
                out.extend_from_slice(&ts.to_le_bytes());
            }
            None => out.push(0),
        }
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses the wire format produced by [`WakuMessage::encode`]. The
    /// codec is canonical: whatever decodes re-encodes to the same bytes.
    ///
    /// # Errors
    ///
    /// Any malformed input yields a [`CodecError`]; decoding never panics.
    pub fn decode(bytes: &[u8]) -> Result<WakuMessage, CodecError> {
        let mut cur = Cursor { bytes, pos: 0 };
        let topic_len = cur.read_u32()? as usize;
        if topic_len > MAX_FIELD {
            return Err(CodecError::LengthOverflow);
        }
        let topic_bytes = cur.read_slice(topic_len)?;
        let content_topic =
            String::from_utf8(topic_bytes.to_vec()).map_err(|_| CodecError::BadTopic)?;
        let ts_flag = cur.read_u8()?;
        let timestamp = match ts_flag {
            0 => None,
            1 => Some(cur.read_u64()?),
            flag => return Err(CodecError::BadTimestampFlag(flag)),
        };
        let payload_len = cur.read_u32()? as usize;
        if payload_len > MAX_FIELD {
            return Err(CodecError::LengthOverflow);
        }
        let payload = cur.read_slice(payload_len)?.to_vec();
        if cur.pos != bytes.len() {
            return Err(CodecError::TrailingBytes);
        }
        Ok(WakuMessage {
            payload,
            content_topic,
            timestamp,
        })
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn read_slice(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        let end = self
            .pos
            .checked_add(len)
            .ok_or(CodecError::LengthOverflow)?;
        if end > self.bytes.len() {
            return Err(CodecError::Truncated);
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }
    fn read_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.read_slice(1)?[0])
    }
    fn read_u32(&mut self) -> Result<u32, CodecError> {
        let s = self.read_slice(4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(s);
        Ok(u32::from_le_bytes(b))
    }
    fn read_u64(&mut self) -> Result<u64, CodecError> {
        let s = self.read_slice(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_with_and_without_timestamp() {
        let mut m = WakuMessage::new("/app/1/chat/proto", b"hello".to_vec());
        assert_eq!(WakuMessage::decode(&m.encode()).unwrap(), m);
        m.timestamp = Some(1_654_041_600);
        assert_eq!(WakuMessage::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn empty_payload_and_topic() {
        let m = WakuMessage::new("", vec![]);
        assert_eq!(WakuMessage::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn truncation_detected() {
        let enc = WakuMessage::new("t", b"data".to_vec()).encode();
        for cut in 0..enc.len() {
            assert!(
                WakuMessage::decode(&enc[..cut]).is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut enc = WakuMessage::new("t", b"data".to_vec()).encode();
        enc.push(0);
        assert_eq!(WakuMessage::decode(&enc), Err(CodecError::TrailingBytes));
    }

    #[test]
    fn hostile_length_fields_rejected() {
        // topic length claims 4 GiB
        let mut enc = Vec::new();
        enc.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(WakuMessage::decode(&enc), Err(CodecError::LengthOverflow));
    }

    #[test]
    fn envelope_carries_no_sender_fields() {
        // structural anonymity check: the encoding of two identical
        // messages from "different senders" is byte-identical — there is
        // nowhere for PII to hide.
        let a = WakuMessage::new("/t", b"same".to_vec()).encode();
        let b = WakuMessage::new("/t", b"same".to_vec()).encode();
        assert_eq!(a, b);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(topic in ".{0,40}", payload in proptest::collection::vec(any::<u8>(), 0..256),
                          ts in proptest::option::of(any::<u64>())) {
            let m = WakuMessage { payload, content_topic: topic, timestamp: ts };
            prop_assert_eq!(WakuMessage::decode(&m.encode()).unwrap(), m);
        }

        #[test]
        fn prop_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
            let _ = WakuMessage::decode(&bytes);
        }

        /// Frames assembled field by field — honest length fields, a free
        /// flag byte — so most inputs decode and the property has teeth.
        #[test]
        fn prop_whatever_decodes_reencodes_to_the_same_bytes(
            topic in ".{0,40}", flag in any::<u8>(), ts in any::<u64>(),
            payload in proptest::collection::vec(any::<u8>(), 0..64)) {
            let mut bytes = (topic.len() as u32).to_le_bytes().to_vec();
            bytes.extend_from_slice(topic.as_bytes());
            bytes.push(flag);
            if flag != 0 {
                bytes.extend_from_slice(&ts.to_le_bytes());
            }
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&payload);
            if let Ok(m) = WakuMessage::decode(&bytes) {
                prop_assert_eq!(m.encode(), bytes);
            }
        }

        #[test]
        fn prop_timestamp_flags_above_one_are_rejected(
            topic in ".{0,40}", ts in proptest::option::of(any::<u64>()),
            payload in proptest::collection::vec(any::<u8>(), 0..64), flag in 2u8..=255) {
            let m = WakuMessage { payload, content_topic: topic, timestamp: ts };
            let mut bytes = m.encode();
            bytes[4 + m.content_topic.len()] = flag;
            prop_assert_eq!(WakuMessage::decode(&bytes), Err(CodecError::BadTimestampFlag(flag)));
        }
    }
}
