//! Tamper-evident JSON-lines: a checksummed trailer over the raw text.
//!
//! The lenient [`crate::TraceBundle::from_jsonl`] parser has a structural
//! blind spot: JSON-lines truncated exactly at a newline boundary parse
//! as a *valid, shorter* bundle, and a bit flip inside a numeric literal
//! can yield different-but-well-formed JSON. Both corruptions pass
//! undetected through any purely syntactic parser.
//!
//! [`seal`] closes the gap by appending one trailer line carrying the
//! non-empty line count and an FNV-1a-64 checksum of every preceding
//! byte. [`verify`] refuses text whose trailer is missing, whose line
//! count disagrees, or whose checksum does not match — so *any* byte
//! damage (truncation, bit flip, record splice, reordering) surfaces as
//! a [`TraceError`] instead of silently dropped or altered records.
//!
//! The trailer is itself a JSON line (`{"trailer":{...}}`), so sealed
//! text remains line-oriented and greppable; the checksum is rendered as
//! fixed-width hex to stay byte-stable.

use serde::{Deserialize, Serialize};
use std::fmt;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of `bytes`. Deterministic, dependency-free, and
/// fast enough to checksum multi-megabyte traces; used for the seals
/// here (trace files, sealed store entries) and for serve's cache keys.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV_OFFSET, bytes)
}

/// Continue an FNV-1a-64 hash: `state` is the hash of everything fed so
/// far, the result the hash of that followed by `bytes`. The hash is
/// sequential, so `fnv1a64_extend(fnv1a64(a), b)` equals `fnv1a64` of
/// `a` and `b` concatenated — which lets a caller keep the state after
/// a long fixed prefix instead of the prefix.
pub fn fnv1a64_extend(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Why sealed text failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The text has no parseable trailer line (missing, truncated, or
    /// corrupted beyond recognition).
    MissingTrailer,
    /// The trailer parsed but its checksum disagrees with the body.
    ChecksumMismatch {
        /// Checksum recorded in the trailer.
        expected: String,
        /// Checksum recomputed over the received body.
        actual: String,
    },
    /// The trailer parsed but its line count disagrees with the body.
    LineCountMismatch {
        /// Line count recorded in the trailer.
        expected: u64,
        /// Non-empty lines actually present in the body.
        actual: u64,
    },
    /// The body verified but failed to parse as trace records.
    Parse(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::MissingTrailer => {
                write!(f, "sealed trace has no integrity trailer (truncated?)")
            }
            TraceError::ChecksumMismatch { expected, actual } => write!(
                f,
                "trace checksum mismatch: trailer says {expected}, body hashes to {actual}"
            ),
            TraceError::LineCountMismatch { expected, actual } => write!(
                f,
                "trace line count mismatch: trailer says {expected}, body has {actual}"
            ),
            TraceError::Parse(msg) => write!(f, "sealed trace body failed to parse: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// The trailer payload.
#[derive(Serialize, Deserialize)]
struct Trailer {
    /// Non-empty body lines preceding the trailer.
    lines: u64,
    /// FNV-1a-64 of every body byte, as 16 hex digits.
    fnv64: String,
}

/// Wrapper giving the trailer its `{"trailer":...}` line shape, which no
/// event/counter/gauge line can collide with.
#[derive(Serialize, Deserialize)]
struct TrailerLine {
    trailer: Trailer,
}

fn count_lines(body: &str) -> u64 {
    body.lines().filter(|l| !l.trim().is_empty()).count() as u64
}

/// Append an integrity trailer line to JSON-lines `body` (which may be
/// empty). The result ends with a newline.
pub fn seal(body: &str) -> String {
    let trailer = TrailerLine {
        trailer: Trailer {
            lines: count_lines(body),
            fnv64: format!("{:016x}", fnv1a64(body.as_bytes())),
        },
    };
    let mut out = String::with_capacity(body.len() + 64);
    out.push_str(body);
    if !out.is_empty() && !out.ends_with('\n') {
        out.push('\n');
    }
    // The trailer types contain only u64 and String, which the vendored
    // serde_json always serialises; an empty line would fail verification
    // downstream rather than pass silently.
    out.push_str(&serde_json::to_string(&trailer).unwrap_or_default());
    out.push('\n');
    out
}

/// Verify text produced by [`seal`], returning the body slice (without
/// the trailer line) on success.
///
/// # Errors
///
/// [`TraceError::MissingTrailer`] when the last non-empty line is not a
/// trailer; [`TraceError::LineCountMismatch`] /
/// [`TraceError::ChecksumMismatch`] when the body disagrees with it.
pub fn verify(text: &str) -> Result<&str, TraceError> {
    // Locate the last non-empty line and where it starts.
    let trimmed = text.trim_end_matches(['\n', '\r']);
    if trimmed.is_empty() {
        return Err(TraceError::MissingTrailer);
    }
    let start = trimmed.rfind('\n').map_or(0, |i| i + 1);
    let last = &trimmed[start..];
    let parsed: TrailerLine = serde_json::from_str(last).map_err(|_| TraceError::MissingTrailer)?;
    let body = &text[..start];
    let actual_lines = count_lines(body);
    if actual_lines != parsed.trailer.lines {
        return Err(TraceError::LineCountMismatch {
            expected: parsed.trailer.lines,
            actual: actual_lines,
        });
    }
    let actual_fnv = format!("{:016x}", fnv1a64(body.as_bytes()));
    if actual_fnv != parsed.trailer.fnv64 {
        return Err(TraceError::ChecksumMismatch {
            expected: parsed.trailer.fnv64,
            actual: actual_fnv,
        });
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn extend_continues_at_every_split() {
        let text = b"cmd=simulate\nrun={}\nconfig={}\n";
        for cut in 0..=text.len() {
            let (head, tail) = text.split_at(cut);
            assert_eq!(fnv1a64_extend(fnv1a64(head), tail), fnv1a64(text));
        }
    }

    #[test]
    fn seal_verify_round_trip() {
        for body in ["", "{\"x\":1}\n", "{\"x\":1}\n{\"y\":2}\n"] {
            let sealed = seal(body);
            assert_eq!(verify(&sealed).unwrap(), body, "body was {body:?}");
        }
    }

    #[test]
    fn truncation_is_detected() {
        let sealed = seal("{\"x\":1}\n{\"y\":2}\n");
        // Cut at every interior byte: all must fail verification.
        for cut in 1..sealed.len() - 1 {
            assert!(
                verify(&sealed[..cut]).is_err(),
                "truncation at byte {cut} passed"
            );
        }
    }

    #[test]
    fn newline_boundary_truncation_is_detected() {
        // The exact case the lenient parser misses.
        let sealed = seal("{\"x\":1}\n{\"y\":2}\n");
        let first_line_end = sealed.find('\n').unwrap() + 1;
        assert!(verify(&sealed[..first_line_end]).is_err());
    }

    #[test]
    fn bit_flip_is_detected() {
        let sealed = seal("{\"cycle\":5,\"kind\":\"RegionExited\"}\n");
        let mut bytes = sealed.clone().into_bytes();
        // Flip a low bit of the digit '5' -> '4': still valid JSON.
        let pos = sealed.find('5').unwrap();
        bytes[pos] ^= 1;
        let flipped = String::from_utf8(bytes).unwrap();
        assert!(verify(&flipped).is_err());
    }

    #[test]
    fn unsealed_text_is_missing_trailer() {
        assert_eq!(verify("{\"x\":1}\n"), Err(TraceError::MissingTrailer));
        assert_eq!(verify(""), Err(TraceError::MissingTrailer));
    }

    #[test]
    fn errors_display_useful_messages() {
        let e = TraceError::LineCountMismatch {
            expected: 4,
            actual: 2,
        };
        assert!(e.to_string().contains("4"));
        assert!(e.to_string().contains("2"));
        assert!(TraceError::MissingTrailer.to_string().contains("trailer"));
    }
}
