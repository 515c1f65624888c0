//! Property tests for the HTTP codec: encode→parse is the identity for
//! any message the API can build, parsing is incremental-safe, and the
//! parser never panics.

use proptest::prelude::*;
use wsp_http::{
    encode_request, encode_response, frame_len, parse_request, parse_response, HeadScan, Method,
    Request, Response,
};

fn token() -> impl Strategy<Value = String> {
    "[A-Za-z][A-Za-z0-9-]{0,12}"
}

fn header_value() -> impl Strategy<Value = String> {
    // No CR/LF or leading/trailing blanks (normalised by parsing).
    "[ -~]{0,24}".prop_map(|s| s.trim().replace(['\r', '\n'], " ").trim().to_owned())
}

fn method() -> impl Strategy<Value = Method> {
    prop_oneof![
        Just(Method::Get),
        Just(Method::Post),
        Just(Method::Head),
        Just(Method::Put),
        Just(Method::Delete),
    ]
}

fn request() -> impl Strategy<Value = Request> {
    (
        method(),
        "[A-Za-z0-9/_.?=-]{1,24}",
        proptest::collection::vec((token(), header_value()), 0..5),
        proptest::collection::vec(any::<u8>(), 0..256),
    )
        .prop_map(|(method, path, headers, body)| {
            let mut r = Request::new(method, format!("/{path}"));
            for (i, (name, value)) in headers.into_iter().enumerate() {
                // Unique names: duplicate header *names* are legal HTTP but
                // the round-trip comparison would need multimap semantics.
                r.headers.append(format!("{name}-{i}"), value);
            }
            r.body = body;
            r
        })
}

fn response() -> impl Strategy<Value = Response> {
    (
        100u16..600,
        "[A-Za-z ]{0,16}",
        proptest::collection::vec((token(), header_value()), 0..5),
        proptest::collection::vec(any::<u8>(), 0..256),
    )
        .prop_map(|(status, reason, headers, body)| {
            let mut r = Response::new(status, reason.trim().to_owned());
            for (i, (name, value)) in headers.into_iter().enumerate() {
                r.headers.append(format!("{name}-{i}"), value);
            }
            r.body = body;
            r
        })
}

/// One hostile header line (or two, for the duplicate): `kind` picks
/// the shape, `n` and `digits` feed the `Content-Length` values, `junk`
/// is raw bytes.
type HostileHeader = (u8, u64, Vec<u8>, Vec<u8>);

fn hostile_header() -> impl Strategy<Value = HostileHeader> {
    (
        0u8..5,
        any::<u64>(),
        proptest::collection::vec(0u8..10, 1..26),
        proptest::collection::vec(any::<u8>(), 0..16),
    )
}

/// A request or response head built from well-formed start lines and
/// adversarial headers, then 0-64 body bytes: shaped enough to reach
/// the `Content-Length` and framing logic that random bytes rarely do.
fn hostile_message(
    (line, method, status): (u8, usize, u16),
    headers: Vec<HostileHeader>,
    body: Vec<u8>,
) -> Vec<u8> {
    const METHODS: [&str; 6] = ["GET", "POST", "PUT", "DELETE", "HEAD", "BREW"];
    let mut out = if line == 0 {
        format!("{} /svc HTTP/1.1\r\n", METHODS[method]).into_bytes()
    } else {
        format!("HTTP/1.1 {status} OK\r\n").into_bytes()
    };
    for (kind, n, digits, junk) in headers {
        let digits: String = digits.iter().map(|d| char::from(b'0' + d)).collect();
        match kind {
            0 => {
                // Half the draws sit within 255 of `u64::MAX`, where
                // `body_start + length` overflows; uniform draws almost
                // never land there.
                let n = if n & 1 == 0 { n } else { u64::MAX - (n >> 56) };
                out.extend_from_slice(format!("Content-Length: {n}\r\n").as_bytes());
            }
            1 => out.extend_from_slice(format!("Content-Length: {digits}\r\n").as_bytes()),
            2 => {
                // The same or a conflicting value, declared twice.
                let second = if n % 2 == 0 {
                    digits.clone()
                } else {
                    n.to_string()
                };
                out.extend_from_slice(
                    format!("Content-Length: {digits}\r\ncontent-length: {second}\r\n").as_bytes(),
                );
            }
            3 => {
                let value = if n % 2 == 0 { "close" } else { "keep-alive" };
                out.extend_from_slice(format!("Connection: {value}\r\n").as_bytes());
            }
            _ => {
                out.extend_from_slice(&junk);
                out.extend_from_slice(b"\r\n");
            }
        }
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(&body);
    out
}

/// What a request looks like after one parse round (Content-Length
/// materialised).
fn normalise_request(mut r: Request) -> Request {
    r.headers.set("Content-Length", r.body.len().to_string());
    r
}

fn normalise_response(mut r: Response) -> Response {
    r.headers.set("Content-Length", r.body.len().to_string());
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn request_round_trip(r in request()) {
        let bytes = encode_request(&r);
        let (parsed, used) = parse_request(&bytes).expect("must parse");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(parsed, normalise_request(r));
    }

    #[test]
    fn response_round_trip(r in response()) {
        let bytes = encode_response(&r);
        let (parsed, used) = parse_response(&bytes).expect("must parse");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(parsed, normalise_response(r));
    }

    #[test]
    fn any_prefix_is_incomplete_or_equal(r in request(), cut_frac in 0.0f64..1.0) {
        let bytes = encode_request(&r);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        match parse_request(&bytes[..cut]) {
            Err(wsp_http::HttpError::Incomplete) => {}
            Ok((parsed, used)) => {
                // A prefix can only parse if it contains the whole message.
                prop_assert_eq!(used, bytes.len());
                prop_assert_eq!(parsed, normalise_request(r));
            }
            Err(other) => prop_assert!(false, "prefix must not be malformed: {other}"),
        }
    }

    #[test]
    fn parser_never_panics(junk in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = parse_request(&junk);
        let _ = parse_response(&junk);
    }

    /// Structured hostile heads: every entry point returns instead of
    /// panicking (debug builds trap integer overflow), a parsed frame
    /// never claims more bytes than it was given, and `frame_len`
    /// agrees with the full parser on every frame the parser accepts.
    #[test]
    fn hostile_heads_never_panic_or_overrun(
        start in (0u8..2, 0usize..6, 0u16..1000),
        headers in proptest::collection::vec(hostile_header(), 0..5),
        body in proptest::collection::vec(any::<u8>(), 0..65),
    ) {
        let input = hostile_message(start, headers, body);
        let request = parse_request(&input).map(|(_, used)| used);
        let response = parse_response(&input).map(|(_, used)| used);
        for used in [&request, &response].into_iter().flatten() {
            prop_assert!(*used <= input.len(), "frame {} > input {}", used, input.len());
        }
        let body_start = HeadScan::new().find(&input);
        if let Some(body_start) = body_start {
            prop_assert!(body_start <= input.len());
            let framed = frame_len(&input, body_start);
            for used in [&request, &response].into_iter().flatten() {
                prop_assert_eq!(&framed, &Ok(*used));
            }
        }
    }

    #[test]
    fn pipelined_messages_split_correctly(a in request(), b in request()) {
        let mut bytes = encode_request(&a);
        bytes.extend_from_slice(&encode_request(&b));
        let (first, used) = parse_request(&bytes).expect("first parses");
        prop_assert_eq!(first, normalise_request(a));
        let (second, used2) = parse_request(&bytes[used..]).expect("second parses");
        prop_assert_eq!(second, normalise_request(b));
        prop_assert_eq!(used + used2, bytes.len());
    }
}
