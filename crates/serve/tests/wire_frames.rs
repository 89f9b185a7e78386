//! Property tests for wire-frame decoding: arbitrary bytes, torn
//! prefixes, single-bit corruption, and hostile length prefixes must
//! all come back as `Ok(None)` (wait for more bytes) or a typed
//! [`WireError`] — never a panic, never a bogus decoded request.

use ctr_serve::protocol::{self, Request, RequestView, WireError};
use proptest::prelude::*;

fn short_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..26, 0..12)
        .prop_map(|bytes| bytes.iter().map(|b| (b'a' + b) as char).collect())
}

fn request_strategy() -> impl Strategy<Value = Request> {
    prop_oneof![
        short_string().prop_map(|source| Request::Deploy { source }),
        short_string().prop_map(|workflow| Request::Start { workflow }),
        (0u64..1000, short_string())
            .prop_map(|(instance, event)| Request::Fire { instance, event }),
        (0u64..1000, proptest::collection::vec(short_string(), 0..5))
            .prop_map(|(instance, events)| Request::FireBatch { instance, events }),
        proptest::collection::vec((0u64..1000, short_string()), 0..5)
            .prop_map(|pairs| Request::FireMany { pairs }),
        (0u64..1000).prop_map(|instance| Request::Eligible { instance }),
        Just(Request::Snapshot),
        Just(Request::Stats),
        Just(Request::Shutdown),
        (0u64..1000).prop_map(|instance| Request::Timers { instance }),
        (0u64..100_000).prop_map(|to_ms| Request::Advance { to_ms }),
        (0u64..1000, short_string())
            .prop_map(|(instance, event)| Request::CancelTimer { instance, event }),
    ]
}

fn encode(req: &Request) -> Vec<u8> {
    let mut payload = Vec::new();
    protocol::encode_request(req, &mut payload);
    let mut frame = Vec::new();
    protocol::encode_frame(&payload, &mut frame);
    frame
}

/// The owned request decoder as it was before requests were decoded in
/// place — every string copied out as it is read — kept as the
/// reference the view decoder is compared with.
fn reference_decode(payload: &[u8]) -> Result<Request, WireError> {
    struct Reader<'a>(&'a [u8]);
    impl Reader<'_> {
        fn take(&mut self, n: usize) -> Result<&[u8], WireError> {
            if self.0.len() < n {
                return Err(WireError::Truncated);
            }
            let (head, tail) = self.0.split_at(n);
            self.0 = tail;
            Ok(head)
        }
        fn u32(&mut self) -> Result<u32, WireError> {
            Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
        }
        fn u64(&mut self) -> Result<u64, WireError> {
            Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
        }
        fn string(&mut self) -> Result<String, WireError> {
            let len = self.u32()? as usize;
            String::from_utf8(self.take(len)?.to_vec()).map_err(|_| WireError::BadUtf8)
        }
        fn count(&mut self) -> Result<usize, WireError> {
            let n = self.u32()? as usize;
            if n > self.0.len() {
                return Err(WireError::Truncated);
            }
            Ok(n)
        }
    }
    let mut r = Reader(payload);
    let req = match r.take(1)?[0] {
        0x01 => Request::Deploy {
            source: r.string()?,
        },
        0x02 => Request::Start {
            workflow: r.string()?,
        },
        0x03 => Request::Fire {
            instance: r.u64()?,
            event: r.string()?,
        },
        0x04 => {
            let instance = r.u64()?;
            let events = (0..r.count()?)
                .map(|_| r.string())
                .collect::<Result<_, _>>()?;
            Request::FireBatch { instance, events }
        }
        0x05 => {
            let pairs = (0..r.count()?)
                .map(|_| Ok((r.u64()?, r.string()?)))
                .collect::<Result<_, WireError>>()?;
            Request::FireMany { pairs }
        }
        0x06 => Request::Eligible { instance: r.u64()? },
        0x07 => Request::Snapshot,
        0x08 => Request::Stats,
        0x09 => Request::Shutdown,
        0x0A => Request::Timers { instance: r.u64()? },
        0x0B => Request::Advance { to_ms: r.u64()? },
        0x0C => Request::CancelTimer {
            instance: r.u64()?,
            event: r.string()?,
        },
        verb => return Err(WireError::UnknownVerb(verb)),
    };
    match r.0.len() {
        0 => Ok(req),
        left => Err(WireError::Trailing(left)),
    }
}

/// Decodes `payload` as the server does — a view, then owned — after
/// checking that a payload that does not decode leaves the names of the
/// burst's earlier requests alone.
fn decode_through_the_view(payload: &[u8]) -> Result<Request, WireError> {
    let mut names = vec!["earlier", "requests"];
    let view = protocol::decode_request_view(payload, &mut names);
    if view.is_err() {
        assert_eq!(names, ["earlier", "requests"]);
    }
    view.map(|view| view.into_request(&names))
}

fn payload_of(req: &Request) -> Vec<u8> {
    let mut payload = Vec::new();
    protocol::encode_request(req, &mut payload);
    payload
}

fn fire_batch_of_three() -> Vec<u8> {
    payload_of(&Request::FireBatch {
        instance: 7,
        events: vec!["approve".to_owned(), "file".to_owned(), "zz".to_owned()],
    })
}

#[test]
fn bad_utf8_in_a_fire_name_is_typed() {
    let mut payload = payload_of(&Request::Fire {
        instance: 7,
        event: "invoice".to_owned(),
    });
    let last = payload.len() - 1;
    payload[last] = 0xff;
    assert_eq!(decode_through_the_view(&payload), Err(WireError::BadUtf8));
    assert_eq!(protocol::decode_request(&payload), Err(WireError::BadUtf8));
}

#[test]
fn bad_utf8_in_the_third_name_of_a_batch_discards_the_first_two() {
    let mut payload = fire_batch_of_three();
    let len = payload.len();
    payload[len - 2..].copy_from_slice(&[0xff, 0xfe]);
    // `decode_through_the_view` checks that "approve" and "file" did not
    // stay behind in the burst's names.
    assert_eq!(decode_through_the_view(&payload), Err(WireError::BadUtf8));
}

#[test]
fn trailing_bytes_after_a_view_are_typed() {
    for mut payload in [
        payload_of(&Request::Fire {
            instance: 7,
            event: "invoice".to_owned(),
        }),
        fire_batch_of_three(),
    ] {
        payload.extend_from_slice(&[0, 0, 0]);
        assert_eq!(
            decode_through_the_view(&payload),
            Err(WireError::Trailing(3))
        );
    }
}

#[test]
fn views_borrow_their_names_from_the_payload() {
    let payload = fire_batch_of_three();
    let mut names = vec!["earlier"];
    let view = protocol::decode_request_view(&payload, &mut names).unwrap();
    assert_eq!(
        view,
        RequestView::FireBatch {
            instance: 7,
            events: 1..4
        }
    );
    assert_eq!(names, ["earlier", "approve", "file", "zz"]);
    assert_eq!(view.as_run(&names), Some((7, &names[1..])));
    let inside = payload.as_ptr_range();
    assert!(names[1..]
        .iter()
        .all(|name| inside.contains(&name.as_ptr())));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever the payload — a request, a damaged one, or noise behind a
    /// verb byte — decoding it as a view and owning the view is the
    /// reference decoder's answer: the same request or the same typed
    /// error.
    #[test]
    fn owning_the_view_is_the_reference_decoder(
        req in request_strategy(),
        damage in 0usize..6,
        at in 0usize..10_000,
        byte in 0u16..256,
        noise in proptest::collection::vec(0u16..256, 0..48),
    ) {
        let mut payload = payload_of(&req);
        let at = at % payload.len();
        match damage {
            0 => {}
            1 => payload.truncate(at),
            2 => payload.push(byte as u8),
            3 => payload[at] = byte as u8,
            // Raise one byte past ASCII: inside a name, bad UTF-8.
            4 => payload[at] |= 0x80,
            _ => {
                payload.truncate(1);
                payload.extend(noise.iter().map(|&b| b as u8));
            }
        }
        prop_assert_eq!(decode_through_the_view(&payload), reference_decode(&payload));
        prop_assert_eq!(protocol::decode_request(&payload), reference_decode(&payload));
    }

    /// Well-formed frames round-trip exactly.
    #[test]
    fn requests_round_trip_through_a_frame(req in request_strategy()) {
        let frame = encode(&req);
        let (consumed, payload) = protocol::split_frame(&frame)
            .expect("valid frame splits")
            .expect("complete frame is recognized");
        prop_assert_eq!(consumed, frame.len());
        let decoded = protocol::decode_request(payload).expect("valid payload decodes");
        prop_assert_eq!(decoded, req);
    }

    /// Every strict prefix of a valid frame is "wait for more bytes",
    /// never an error and never a partial decode.
    #[test]
    fn torn_frames_are_incomplete_not_errors(req in request_strategy(), cut in 0usize..10_000) {
        let frame = encode(&req);
        let cut = cut % frame.len();
        prop_assert!(matches!(protocol::split_frame(&frame[..cut]), Ok(None)));
    }

    /// Flipping any single bit of a valid frame can never yield a
    /// successfully decoded request: the CRC (or the length prefix)
    /// catches it with a typed error or an incomplete-frame wait.
    #[test]
    fn corrupted_frames_never_decode(req in request_strategy(), pos in 0usize..10_000, bit in 0u8..8) {
        let mut frame = encode(&req);
        let pos = pos % frame.len();
        frame[pos] ^= 1 << bit;
        match protocol::split_frame(&frame) {
            Ok(Some((_, payload))) => {
                // Only reachable if the flip landed in the length
                // prefix and shrank the frame; the CRC re-check makes
                // this impossible, so a decode here is a bug.
                prop_assert!(
                    protocol::decode_request(payload).is_err() || payload.is_empty(),
                    "corrupt frame decoded as a request"
                );
            }
            Ok(None) => {} // flip grew the length prefix: wait state
            Err(
                WireError::BadCrc
                | WireError::Oversized(_)
                | WireError::UnknownVerb(_)
                | WireError::UnknownKind(_)
                | WireError::BadUtf8
                | WireError::Truncated
                | WireError::Trailing(_),
            ) => {}
        }
    }

    /// Arbitrary garbage never panics the splitter or the decoder.
    #[test]
    fn arbitrary_bytes_never_panic(
        raw in proptest::collection::vec(0u16..256, 0..256),
    ) {
        let bytes: Vec<u8> = raw.iter().map(|b| *b as u8).collect();
        if let Ok(Some((consumed, payload))) = protocol::split_frame(&bytes) {
            prop_assert!(consumed <= bytes.len());
            let _ = protocol::decode_request(payload);
            let _ = protocol::decode_response(payload);
        }
    }

    /// A hostile length prefix (up to u32::MAX) is rejected as
    /// Oversized before any allocation, not trusted.
    #[test]
    fn hostile_lengths_are_rejected_up_front(len in ((1u32 << 20) + 1)..u32::MAX) {
        let mut frame = Vec::new();
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&[0u8; 4]);
        frame.extend_from_slice(&[0u8; 64]);
        prop_assert!(matches!(
            protocol::split_frame(&frame),
            Err(WireError::Oversized(_))
        ));
    }
}
